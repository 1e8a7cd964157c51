package main

import (
	"bufio"
	"bytes"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/obs"
)

// obsReading is one read of the process-global obs registry: every counter
// and gauge by name, and every histogram's _sum and _count. It is taken from
// the registry's Prometheus exposition, so reading registers nothing.
type obsReading map[string]float64

func readObs() (obsReading, error) {
	var buf bytes.Buffer
	if err := obs.Default().WriteProm(&buf); err != nil {
		return nil, fmt.Errorf("reading obs registry: %w", err)
	}
	out := make(obsReading)
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			return nil, fmt.Errorf("obs exposition line %q has no value", line)
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("obs exposition line %q: %w", line, err)
		}
		out[name] = v
	}
	return out, sc.Err()
}

// delta returns after[name] − before[name]. A name missing from after is a
// benchmark bug (the instrument was renamed or removed), reported as such.
func (after obsReading) delta(before obsReading, name string) (float64, error) {
	a, ok := after[name]
	if !ok {
		return 0, fmt.Errorf("obs registry has no %q", name)
	}
	return a - before[name], nil
}
