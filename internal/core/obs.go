package core

import (
	"repro/internal/obs"
	"repro/internal/powertree"
)

// Runtime metrics (see DESIGN.md "Observability"). Ingest and Tick are
// serial entry points, so the counters are exact and replay-deterministic;
// the tick timing histogram is exempt.
var (
	obsIngestSamples = obs.Default().Counter("smoothop_runtime_ingest_samples_total",
		"Power readings ingested into the trace store.")
	obsTicks = obs.Default().Counter("smoothop_runtime_ticks_total",
		"Completed drift-monitor ticks.")
	obsTickSwaps = obs.Default().Counter("smoothop_runtime_tick_swaps_total",
		"Swaps applied by drift-monitor ticks.")
	obsTickSpan = obs.Default().Span("smoothop_runtime_tick_seconds",
		"Wall time of one drift-monitor tick.")

	// Degradation metrics: quarantine, fallback scoring, ingest retries and
	// the emergency capping path. All are updated from the serial
	// Ingest/Bootstrap/Tick entry points, so replays reproduce them exactly.
	obsIngestRetries = obs.Default().Counter("smoothop_runtime_ingest_retries_total",
		"Ingest retries after transient store failures.")
	obsQuarantined = obs.Default().Gauge("smoothop_runtime_quarantined_instances",
		"Instances currently scored from reference traces (below the coverage floor).")
	obsFallbackTraces = obs.Default().Counter("smoothop_runtime_fallback_traces_total",
		"Service reference traces substituted for quarantined instances.")
	obsBreakerTrips = obs.Default().Counter("smoothop_runtime_breaker_trips_total",
		"Breaker violations found at trip-reduced budgets.")
	obsEmergencyThrottles = obs.Default().Counter("smoothop_runtime_emergency_throttles_total",
		"Shedding directives issued by the emergency capping path.")

	// Online admission metrics. AdmitInstance/RetireInstance serialize on the
	// runtime's mutex, so the counters are exact under concurrent HTTP use.
	obsRuntimeAdmissions = obs.Default().Counter("smoothop_runtime_admissions_total",
		"Instances admitted through the runtime's online placement path.")
	obsRuntimeAdmissionRejects = obs.Default().Counter("smoothop_runtime_admission_rejections_total",
		"Online admissions rejected because no leaf could host the instance.")
	obsRuntimeRetirements = obs.Default().Counter("smoothop_runtime_retirements_total",
		"Instances retired through the runtime's online placement path.")
	obsOnlineResyncs = obs.Default().Counter("smoothop_runtime_online_resyncs_total",
		"Tick remaps absorbed by resyncing only the swapped leaves of the cached admission view.")
	obsOnlineDrops = obs.Default().Counter("smoothop_runtime_online_drops_total",
		"Cached admission views dropped wholesale (resync failed or a remapped leaf vanished).")

	// Fragmentation-gauge refresh path: full refreshes aggregate the whole
	// tree once (Bootstrap, Tick, a retirement with no admission view, a new
	// admission view); delta refreshes read the admission view's maintained
	// snapshot, which folds in only the leaf an admission or retirement
	// touched.
	obsFragFullRefreshes = obs.Default().Counter("smoothop_runtime_frag_full_refreshes_total",
		"Fragmentation gauge refreshes that aggregated the full tree.")
	obsFragDeltaRefreshes = obs.Default().Counter("smoothop_runtime_frag_delta_refreshes_total",
		"Fragmentation gauge refreshes read from the admission view's maintained snapshot.")

	// Per-level power-fragmentation gauges (the obs registry has no labels,
	// so each tier gets its own series). Refreshed at Bootstrap, Tick and
	// every admission or retirement.
	obsFragDC = obs.Default().Gauge("smoothop_runtime_fragmentation_pct_dc",
		"Power-fragmentation rate at the DC level (percent of capacity stranded).")
	obsFragSuite = obs.Default().Gauge("smoothop_runtime_fragmentation_pct_suite",
		"Power-fragmentation rate at the suite level (percent of capacity stranded).")
	obsFragMSB = obs.Default().Gauge("smoothop_runtime_fragmentation_pct_msb",
		"Power-fragmentation rate at the MSB level (percent of capacity stranded).")
	obsFragSB = obs.Default().Gauge("smoothop_runtime_fragmentation_pct_sb",
		"Power-fragmentation rate at the SB level (percent of capacity stranded).")
	obsFragRPP = obs.Default().Gauge("smoothop_runtime_fragmentation_pct_rpp",
		"Power-fragmentation rate at the RPP level (percent of capacity stranded).")
)

// fragGauge maps a tree level to its fragmentation gauge.
func fragGauge(l powertree.Level) *obs.Gauge {
	switch l {
	case powertree.DC:
		return obsFragDC
	case powertree.Suite:
		return obsFragSuite
	case powertree.MSB:
		return obsFragMSB
	case powertree.SB:
		return obsFragSB
	case powertree.RPP:
		return obsFragRPP
	}
	return nil
}
