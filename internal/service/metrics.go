package service

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lcn3d/internal/cluster"
	"lcn3d/internal/faults"
	"lcn3d/internal/overload"
	"lcn3d/internal/store"
)

// metrics holds the service counters. Everything is atomics or a small
// mutex-guarded latency ring so the /v1/metrics scrape never blocks
// behind an evaluation.
type metrics struct {
	start time.Time

	requests    atomic.Int64 // accepted requests (simulate + evaluate)
	cacheHits   atomic.Int64 // served from the result cache
	cacheMisses atomic.Int64 // had to go through single-flight
	dedupHits   atomic.Int64 // coalesced onto an in-flight identical request
	evaluations atomic.Int64 // actual computations run (leaders)
	timeouts    atomic.Int64 // requests that hit their deadline
	errors      atomic.Int64 // non-timeout failures
	rejected    atomic.Int64 // refused while draining
	panics      atomic.Int64 // panics contained in the compute path

	queueDepth atomic.Int64 // waiting for a worker slot
	inFlight   atomic.Int64 // holding a worker slot

	optimizeRuns atomic.Int64 // optimization jobs actually computed

	// Transient-trace counters: accepted /v1/transient runs, total
	// implicit-Euler steps executed, and the matrix factorizations those
	// steps cost (one per (dt, s) segment when amortization holds).
	transientRuns           atomic.Int64
	transientSteps          atomic.Int64
	transientFactorizations atomic.Int64

	// Read-path tier counters beyond the memory LRU: the persistent
	// store (tier 2), the owning peer (tier 3), and the fallback when
	// the owner could not answer.
	storeHits        atomic.Int64 // served from the local disk store
	storeMisses      atomic.Int64 // disk store consulted, absent
	peerHits         atomic.Int64 // served by the owning peer (fetch or forward)
	localFallbacks   atomic.Int64 // peer-owned key computed locally (owner unreachable)
	storeFetchServed atomic.Int64 // /v1/store/{hash} requests this node answered

	// Overload-control counters: admission sheds, peer-read hedges, and
	// the brownout ladder's degradations.
	shed             atomic.Int64 // requests rejected by admission (429)
	hedges           atomic.Int64 // peer reads whose local hedge fired
	hedgeLocalWins   atomic.Int64 // hedged reads won by local compute
	downgradedServed atomic.Int64 // responses served from the 2RM substitute
	fillsPaused      atomic.Int64 // store fills skipped at LevelPause
	peerTierSkips    atomic.Int64 // peer tier skipped at LevelStale+

	lat latencyRing
}

// latencyRing keeps the most recent request latencies for quantile
// estimation; a fixed window keeps the snapshot O(1) memory and makes
// p50/p95 reflect recent traffic rather than all-time history.
type latencyRing struct {
	mu   sync.Mutex
	buf  [1024]time.Duration
	next int
	n    int
}

func (r *latencyRing) observe(d time.Duration) {
	r.mu.Lock()
	r.buf[r.next] = d
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
	r.mu.Unlock()
}

// quantile returns the q-quantile (0..1) of the window, 0 when empty.
func (r *latencyRing) quantiles(qs ...float64) []time.Duration {
	r.mu.Lock()
	sorted := make([]time.Duration, r.n)
	copy(sorted, r.buf[:r.n])
	r.mu.Unlock()
	out := make([]time.Duration, len(qs))
	if len(sorted) == 0 {
		return out
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for i, q := range qs {
		k := int(q * float64(len(sorted)-1))
		out[i] = sorted[k]
	}
	return out
}

// FactorSnapshot aggregates the thermal.FactorStats of every cached
// model, proving warm-start amortization survives across requests.
type FactorSnapshot struct {
	Probes        int     `json:"probes"`
	WarmStarts    int     `json:"warm_starts"`
	WarmStartRate float64 `json:"warm_start_rate"`
	PrecondBuilds int     `json:"precond_builds"`
	SolveIters    int     `json:"solve_iters"`

	// Escalation-ladder counters (see solver.Rung): probes that climbed
	// to each fallback rung, and probes whose result was degraded.
	RetryRebuild int `json:"retry_rebuild"`
	RetryGMRES   int `json:"retry_gmres"`
	RetryDense   int `json:"retry_dense"`
	Degraded     int `json:"degraded"`

	Multigrid MultigridSnapshot `json:"multigrid"`
}

// MultigridSnapshot aggregates the two-level multigrid preconditioner
// counters (solver.MGStats) of every cached model, plus the latch-off
// count: models that permanently fell back to ILU preconditioning.
type MultigridSnapshot struct {
	VCycles        int64 `json:"v_cycles"`
	SmootherSweeps int64 `json:"smoother_sweeps"`
	SmootherBuilds int64 `json:"smoother_builds"`
	CoarseSolves   int64 `json:"coarse_solves"`
	Updates        int64 `json:"updates"`
	LatchOffs      int64 `json:"latch_offs"`
}

// MetricsSnapshot is the JSON document served by /v1/metrics.
type MetricsSnapshot struct {
	UptimeSec float64 `json:"uptime_sec"`

	Requests    int64 `json:"requests"`
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	DedupHits   int64 `json:"dedup_hits"`
	Evaluations int64 `json:"evaluations"`
	Timeouts    int64 `json:"timeouts"`
	Errors      int64 `json:"errors"`
	Rejected    int64 `json:"rejected"`
	Panics      int64 `json:"panics"`

	// CacheHitRate = hits / (hits + misses); DedupRate = coalesced /
	// accepted requests.
	CacheHitRate float64 `json:"cache_hit_rate"`
	DedupRate    float64 `json:"dedup_rate"`

	QueueDepth int64 `json:"queue_depth"`
	InFlight   int64 `json:"in_flight"`

	LatencyP50Ms float64 `json:"latency_p50_ms"`
	LatencyP95Ms float64 `json:"latency_p95_ms"`

	ResultsCached int `json:"results_cached"`
	ModelsCached  int `json:"models_cached"`

	// Read-path tier counters beyond the memory LRU (zero when the node
	// runs without a store or cluster).
	StoreHits        int64 `json:"store_hits"`
	StoreMisses      int64 `json:"store_misses"`
	PeerHits         int64 `json:"peer_hits"`
	LocalFallbacks   int64 `json:"local_fallbacks"`
	StoreFetchServed int64 `json:"store_fetch_served"`

	// Store and Cluster snapshot the persistent result store and the
	// sharding fleet state; both are absent on a standalone node.
	Store   *store.Stats   `json:"store,omitempty"`
	Cluster *cluster.Stats `json:"cluster,omitempty"`

	// Overload reports the admission controller, brownout ladder, and
	// degradation counters.
	Overload OverloadSnapshot `json:"overload"`

	Factor FactorSnapshot `json:"factor"`

	Optimize OptimizeSnapshot `json:"optimize"`

	Transient TransientSnapshot `json:"transient"`

	// Faults reports per-point fault-injection counters when injection
	// is armed (absent otherwise), so chaos runs can assert their plan
	// actually fired.
	Faults map[string]faults.Stat `json:"faults,omitempty"`
}

// OverloadSnapshot reports the overload-control state: the admission
// controller (AIMD limit, per-class counters), the brownout ladder, and
// every degradation the ladder has applied.
type OverloadSnapshot struct {
	Admission overload.AdmissionSnapshot `json:"admission"`
	Brownout  overload.BrownoutSnapshot  `json:"brownout"`

	Shed             int64 `json:"shed"`              // requests rejected with 429
	Hedges           int64 `json:"hedges"`            // peer reads whose local hedge fired
	HedgeLocalWins   int64 `json:"hedge_local_wins"`  // hedged reads won by local compute
	DowngradedServed int64 `json:"downgraded_served"` // 2RM-substituted responses served
	FillsPaused      int64 `json:"fills_paused"`      // store fills skipped at pause
	PeerTierSkips    int64 `json:"peer_tier_skips"`   // peer tier skipped at stale-serve+
	JobsShed         int64 `json:"jobs_shed"`         // job submissions refused at pause
}

// OptimizeSnapshot reports optimization activity: total solver runs
// (cache hits excluded), live per-chain SA positions of running jobs,
// retained terminal job records with completion timestamps, and the
// checkpoint/resume counters of the jobs subsystem.
type OptimizeSnapshot struct {
	Runs   int64 `json:"runs"`
	Active int   `json:"active"` // jobs currently running
	Queued int   `json:"queued"` // pending or checkpointed, awaiting a slot
	// Jobs lists every retained record: running jobs with live progress
	// and terminal ones with CompletedUnixMS set.
	Jobs   []OptimizeProgress `json:"jobs,omitempty"`
	States map[string]int     `json:"states,omitempty"`

	Checkpoints int64 `json:"checkpoints"`
	Resumes     int64 `json:"resumes"`
	Recovered   int64 `json:"recovered"`
	// EventsDropped counts SSE subscriber events lost to backpressure
	// across all jobs (each subscriber also sees its own count on the
	// next delivered event).
	EventsDropped int64 `json:"events_dropped"`
}

// TransientSnapshot reports /v1/transient activity. StepsPerFactorization
// is the amortization headline: how many implicit-Euler solves rode on
// each matrix factorization (one factorization per (dt, s) segment when
// the transient engine's reuse holds).
type TransientSnapshot struct {
	Runs                  int64   `json:"runs"`
	Steps                 int64   `json:"steps"`
	Factorizations        int64   `json:"factorizations"`
	StepsPerFactorization float64 `json:"steps_per_factorization"`
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
