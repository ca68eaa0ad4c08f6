// Package service is the serving subsystem behind cmd/lcn-serve: a
// concurrent thermal-evaluation front end over the benchmark cases and
// the factored fast path of internal/thermal. It adds, in front of each
// evaluation:
//
//   - a content-addressed LRU result cache keyed on the canonical
//     serialization of the (case, model, network, parameters) tuple, so
//     structurally identical requests hit regardless of how the network
//     was constructed, and repeated requests return bitwise-identical
//     response bytes;
//   - single-flight deduplication, so concurrent identical requests run
//     one evaluation and share its result;
//   - a bounded worker pool with per-request context deadlines plumbed
//     down to individual simulator probes (internal/core cancellation);
//   - per-(case, network, model) reuse of warm thermal.Factored state,
//     so warm starts and preconditioner reuse survive across requests;
//   - counters and latency quantiles served as a metrics snapshot;
//   - graceful drain: stop accepting, finish in-flight work, report.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"lcn3d/internal/cluster"
	"lcn3d/internal/core"
	"lcn3d/internal/faults"
	"lcn3d/internal/grid"
	"lcn3d/internal/iccad"
	"lcn3d/internal/jobs"
	"lcn3d/internal/network"
	"lcn3d/internal/overload"
	"lcn3d/internal/rm2"
	"lcn3d/internal/rm4"
	"lcn3d/internal/scenario"
	"lcn3d/internal/store"
	"lcn3d/internal/thermal"
)

// ErrDraining is returned for requests that arrive after Drain started.
var ErrDraining = errors.New("service: draining, not accepting new work")

func floatBits(f float64) uint64 { return math.Float64bits(f) }

// Config tunes a Service. The zero value is usable.
type Config struct {
	// Scale is the default square grid size for cases whose request does
	// not specify one (0 = full 101x101 contest scale).
	Scale int
	// Workers bounds concurrent evaluations (default NumCPU).
	Workers int
	// ResultCacheSize bounds the content-addressed response cache
	// (default 4096 entries).
	ResultCacheSize int
	// ModelCacheSize bounds the number of warm model bindings kept
	// (default 16; each holds a factored thermal system).
	ModelCacheSize int
	// DefaultTimeout bounds requests that carry no timeout_ms
	// (default 2 minutes).
	DefaultTimeout time.Duration
	// Search overrides the pressure-search options (zero = defaults).
	Search core.SearchOptions
	// Store, when non-nil, is the persistent content-addressed result
	// store: the second tier of the read path (memory LRU → Store →
	// owning peer), filled asynchronously through its write batcher, and
	// flushed by Drain. The caller owns its lifecycle (Close).
	Store *store.Store
	// Cluster, when non-nil, shards work across a fleet: cache keys
	// whose consistent-hash owner is a peer are answered by fetching
	// from that peer's store or forwarding the request single-hop, with
	// local compute as the fallback when the owner is down.
	Cluster *cluster.Cluster
	// Overload tunes the admission controller, the peer-read hedge, and
	// the brownout ladder. The zero value gets defaults (admission capped
	// at Workers).
	Overload overload.Options
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
	}
	if c.ResultCacheSize <= 0 {
		c.ResultCacheSize = 4096
	}
	if c.ModelCacheSize <= 0 {
		c.ModelCacheSize = 16
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 2 * time.Minute
	}
	return c
}

// Service is a concurrent evaluation front end. Create with New, then
// serve requests via Simulate/Evaluate (or the HTTP handler), and stop
// with Drain.
type Service struct {
	cfg Config

	benchMu sync.Mutex
	benches map[[2]int]*iccad.Benchmark // (case, scale) -> loaded case

	models  *lruCache // modelKey -> *modelEntry
	results *lruCache // cacheKey -> []byte (marshaled response)
	flights flightGroup

	// adm replaces a plain worker semaphore: a bounded, deadline-aware
	// admission queue with priority classes and an AIMD concurrency
	// limit, shedding early with 429 instead of queueing unboundedly.
	adm *overload.Admission
	// brown is the degradation ladder; do() feeds it one pressure sample
	// per completed request.
	brown *overload.Brownout
	// hedgeAfter is the resolved peer-read hedge delay (negative =
	// hedging disabled).
	hedgeAfter time.Duration

	// jobs owns checkpointable optimization jobs: its own concurrency
	// pool (separate from sem, so a sync optimize waiting on its job
	// never deadlocks the slot the job needs), durable records in Store,
	// and the SSE event streams.
	jobs *jobs.Manager

	met metrics

	drainMu  sync.Mutex
	drainCV  *sync.Cond
	draining bool
	active   int

	// computeHook, when non-nil, runs on the leader after it takes a
	// worker slot and before it computes. Tests use it to hold a
	// computation open so concurrency windows are deterministic.
	computeHook func()
}

// New builds a Service.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:     cfg,
		benches: make(map[[2]int]*iccad.Benchmark),
		models:  newLRU(cfg.ModelCacheSize),
		results: newLRU(cfg.ResultCacheSize),
	}
	acfg := cfg.Overload.Admission
	if acfg.MaxConcurrency <= 0 {
		acfg.MaxConcurrency = cfg.Workers
	}
	s.adm = overload.NewAdmission(acfg)
	s.brown = overload.NewBrownout(cfg.Overload.Brownout)
	switch {
	case cfg.Overload.HedgeAfter < 0:
		s.hedgeAfter = -1
	case cfg.Overload.HedgeAfter == 0:
		s.hedgeAfter = overload.DefaultHedgeAfter
	default:
		s.hedgeAfter = cfg.Overload.HedgeAfter
	}
	s.drainCV = sync.NewCond(&s.drainMu)
	s.met.start = time.Now()
	jcfg := jobs.Config{
		Run:         s.runOptimizeJob,
		Concurrency: cfg.Workers,
		Logf:        log.Printf,
		// At the top brownout rung new jobs are shed: running work keeps
		// its checkpoints, but the queue stops growing until pressure
		// clears.
		Gate: func() error {
			if s.brown.Level() >= overload.LevelPause {
				return &overload.ShedError{Class: overload.Batch, RetryAfter: 5 * time.Second}
			}
			return nil
		},
	}
	if cfg.Store != nil {
		jcfg.Blobs = cfg.Store
	}
	if cfg.Cluster != nil {
		jcfg.Owner = cfg.Cluster.Self()
		jcfg.Replicate = s.replicateJobBlob
	}
	s.jobs = jobs.NewManager(jcfg)
	return s
}

// bench loads (and caches) a benchmark case at the requested scale.
func (s *Service) bench(ref CaseRef) (*iccad.Benchmark, int, error) {
	scale := ref.Scale
	if scale == 0 {
		scale = s.cfg.Scale
	}
	if scale == 0 {
		scale = iccad.FullDims.NX
	}
	if scale < 5 || scale > 201 {
		return nil, 0, badRequest("scale %d outside 5..201", scale)
	}
	key := [2]int{ref.Case, scale}
	s.benchMu.Lock()
	defer s.benchMu.Unlock()
	if b, ok := s.benches[key]; ok {
		return b, scale, nil
	}
	b, err := iccad.LoadScaled(ref.Case, grid.Dims{NX: scale, NY: scale})
	if err != nil {
		return nil, 0, badRequest("%v", err)
	}
	s.benches[key] = b
	return b, scale, nil
}

// modelEntry is one warm (case, network, model) binding. The simulator
// is built lazily exactly once; its thermal.Factored state (warm-start
// fields, preconditioner) persists for the entry's LRU lifetime, so
// probes from later requests against the same network warm-start from
// earlier ones.
type modelEntry struct {
	once  sync.Once
	sim   core.SimFunc // memoized
	stats func() thermal.FactorStats
	// tmodel is the scenario-facing surface of the same bound model,
	// used by the /v1/transient stream (each trace compiles its own
	// stepper, so concurrent traces on one entry are safe).
	tmodel scenario.Model
	err    error
}

func (s *Service) model(ref CaseRef, ms ModelSpec, b *iccad.Benchmark, n *network.Network, netHash string) (*modelEntry, error) {
	key := modelKey(ref, ms, netHash)
	v, _ := s.models.GetOrPut(key, &modelEntry{})
	e := v.(*modelEntry)
	e.once.Do(func() {
		// The recover must live inside the once closure: a panicking
		// builder would otherwise mark the Once done with e.sim nil, and
		// every later request on this entry would nil-deref. Recovering
		// here poisons the entry with a diagnosable error instead.
		defer func() {
			if r := recover(); r != nil {
				e.err = &core.InternalError{Recovered: r, Stack: debug.Stack()}
			}
		}()
		nets := make([]*network.Network, len(b.Stk.ChannelLayers()))
		for i := range nets {
			nets[i] = n
		}
		switch ms.Model {
		case "2rm":
			m, err := rm2.New(b.Stk, nets, ms.CoarseM, ms.scheme())
			if err != nil {
				e.err = err
				return
			}
			e.sim = core.Memo(m.Simulate)
			e.stats = m.FactorStats
			e.tmodel = m
		default:
			m, err := rm4.New(b.Stk, nets, ms.scheme())
			if err != nil {
				e.err = err
				return
			}
			e.sim = core.Memo(m.Simulate)
			e.stats = m.FactorStats
			e.tmodel = m
		}
	})
	if e.err != nil {
		var ie *core.InternalError
		if errors.As(e.err, &ie) {
			return nil, e.err // a builder panic is a 500, not the client's fault
		}
		return nil, badRequest("model: %v", e.err)
	}
	return e, nil
}

// enter registers an accepted request; it fails once draining started.
func (s *Service) enter() bool {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	if s.draining {
		return false
	}
	s.active++
	return true
}

func (s *Service) leave() {
	s.drainMu.Lock()
	s.active--
	if s.active == 0 {
		s.drainCV.Broadcast()
	}
	s.drainMu.Unlock()
}

// Drain stops accepting new requests, checkpoints running jobs, blocks
// until every in-flight request has finished, then pushes any batched
// store writes to disk so results — and job records and checkpoints —
// computed just before shutdown survive a restart. The order matters:
// the admission gate closes first, then the job drain cancels runners
// at their next barrier (their checkpoint persists and sync waiters
// unblock with ErrDraining, which is what lets active reach zero), and
// the store flush runs last so it captures the final job records. It
// is idempotent.
func (s *Service) Drain() {
	s.drainMu.Lock()
	s.draining = true
	s.drainMu.Unlock()
	s.jobs.Drain()
	s.drainMu.Lock()
	for s.active > 0 {
		s.drainCV.Wait()
	}
	s.drainMu.Unlock()
	if s.cfg.Store != nil {
		if err := s.cfg.Store.Flush(); err != nil {
			log.Printf("service: drain store flush: %v", err)
		}
	}
}

// Draining reports whether Drain has been called.
func (s *Service) Draining() bool {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	return s.draining
}

// forwardedKey marks request contexts that arrived with the cluster
// loop-guard header: the request was already forwarded one hop, so this
// node must answer it locally (serve or compute), never re-forward.
type forwardedKey struct{}

// WithForwarded marks ctx as carrying an already-forwarded request.
// The HTTP layer applies it when the X-LCN-Forwarded header is present.
func WithForwarded(ctx context.Context) context.Context {
	return context.WithValue(ctx, forwardedKey{}, true)
}

func forwardedFrom(ctx context.Context) bool {
	v, _ := ctx.Value(forwardedKey{}).(bool)
	return v
}

// fromPeer answers key from its owning peer: first the cheap store
// lookup (GET /v1/store/{hash} — no compute on the peer), then the full
// forwarded request, which the peer serves from any of its tiers or
// computes exactly once under its own single-flight.
func (s *Service) fromPeer(ctx context.Context, owner, endpoint, key string, fwdReq any) ([]byte, error) {
	if blob, err := s.cfg.Cluster.FetchStore(ctx, owner, key); err == nil {
		return blob, nil
	} else if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	body, err := json.Marshal(fwdReq)
	if err != nil {
		return nil, fmt.Errorf("service: marshal forward request: %w", err)
	}
	return s.cfg.Cluster.Forward(ctx, owner, endpoint, body)
}

// downgradedResponse wraps a response whose compute substituted the
// cheap 2RM model under brownout: do() serves it (flagged Degraded by
// the compute closure) but never caches it under the full-fidelity key,
// so the first healthy request recomputes the real answer instead of
// inheriting the degraded one.
type downgradedResponse struct{ resp any }

// do runs one request end to end: admission, deadline, the three-tier
// read path (memory LRU → local disk store → owning peer), single-
// flight, worker pool, compute. It returns the marshaled response
// bytes — cached responses are returned verbatim, so a repeat of a
// cached request is bitwise identical. endpoint and fwdReq describe the
// request for peer forwarding (fwdReq must marshal to a body the peer's
// HTTP handler accepts, with every normalized field pinned so the peer
// derives the same key). class selects the admission priority; every
// completion feeds one pressure sample to the brownout ladder.
func (s *Service) do(ctx context.Context, key, endpoint string, fwdReq any, timeoutMS int, class overload.Class, compute func(ctx context.Context) (any, error)) ([]byte, error) {
	if !s.enter() {
		s.met.rejected.Add(1)
		return nil, ErrDraining
	}
	defer s.leave()
	s.met.requests.Add(1)
	t0 := time.Now()
	defer func() { s.met.lat.observe(time.Since(t0)) }()
	defer func() { s.brown.Observe(s.adm.Pressure()) }()

	timeout := s.cfg.DefaultTimeout
	if timeoutMS > 0 {
		timeout = time.Duration(timeoutMS) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()

	if buf, ok := s.results.Get(key); ok {
		s.met.cacheHits.Add(1)
		return buf.([]byte), nil
	}
	s.met.cacheMisses.Add(1)

	buf, err, shared := s.flights.Do(ctx, key, func() ([]byte, error) {
		// Tier 2: the local disk store. A hit is promoted into the memory
		// LRU and served without touching a worker slot — a cold-restarted
		// node answers previously solved topologies from disk without
		// re-running the solver.
		if s.cfg.Store != nil {
			if blob, ok := s.cfg.Store.Get(key); ok {
				s.met.storeHits.Add(1)
				s.results.Put(key, blob)
				return blob, nil
			}
			s.met.storeMisses.Add(1)
		}
		// localCompute is the leader path: admission (queue, priority,
		// AIMD limit, early shedding), then the computation under panic
		// containment. It is also the hedge's secondary arm.
		localCompute := func(ctx context.Context) ([]byte, error) {
			s.met.queueDepth.Add(1)
			release, aerr := s.adm.Acquire(ctx, class)
			s.met.queueDepth.Add(-1)
			if aerr != nil {
				var shed *overload.ShedError
				if errors.As(aerr, &shed) {
					s.met.shed.Add(1)
				}
				return nil, aerr
			}
			tAdm := time.Now()
			s.met.inFlight.Add(1)
			defer func() {
				s.met.inFlight.Add(-1)
				release(time.Since(tAdm))
			}()
			if s.computeHook != nil {
				s.computeHook()
			}
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			s.met.evaluations.Add(1)
			resp, err := s.protect(ctx, compute)
			if err != nil {
				return nil, err
			}
			downgraded := false
			if dg, ok := resp.(*downgradedResponse); ok {
				downgraded, resp = true, dg.resp
			}
			out, err := json.Marshal(resp)
			if err != nil {
				return nil, fmt.Errorf("service: marshal response: %w", err)
			}
			if downgraded {
				// Serve it, never cache it: the key promises full fidelity.
				s.met.downgradedServed.Add(1)
				return out, nil
			}
			s.results.Put(key, out)
			// Fill the persistent store asynchronously: Put enqueues into the
			// write batcher (group fsync); Drain flushes what is pending. The
			// top brownout rung pauses fills — fsync bandwidth goes to
			// checkpoints and live traffic until pressure clears.
			if s.cfg.Store != nil {
				if s.brown.Level() >= overload.LevelPause {
					s.met.fillsPaused.Add(1)
				} else if err := s.cfg.Store.Put(key, out); err != nil {
					log.Printf("service: store fill %s: %v", key, err)
				}
			}
			return out, nil
		}
		// Tier 3: the owning peer. Only for keys this node does not own,
		// and never for requests that were already forwarded once (the
		// X-LCN-Forwarded loop guard keeps forwarding single-hop). From
		// LevelStale up the tier is skipped entirely — local answers only.
		// Otherwise the peer read is hedged: if the owner has not answered
		// within hedgeAfter (or fails early), local compute launches and
		// the first success wins.
		if s.cfg.Cluster != nil && !forwardedFrom(ctx) {
			if owner, self := s.cfg.Cluster.Owner(key); !self {
				if s.brown.Level() >= overload.LevelStale {
					s.met.peerTierSkips.Add(1)
				} else if s.hedgeAfter < 0 {
					if blob, err := s.fromPeer(ctx, owner, endpoint, key, fwdReq); err == nil {
						s.met.peerHits.Add(1)
						s.results.Put(key, blob)
						return blob, nil
					} else if ctx.Err() != nil {
						return nil, ctx.Err()
					}
					s.met.localFallbacks.Add(1)
				} else {
					blob, outcome, err := overload.Hedge(ctx, s.hedgeAfter,
						func(ctx context.Context) ([]byte, error) {
							return s.fromPeer(ctx, owner, endpoint, key, fwdReq)
						}, localCompute)
					if outcome.SecondaryStarted {
						s.met.hedges.Add(1)
					}
					if err == nil {
						if outcome.SecondaryWon {
							// localCompute cached it (unless downgraded). A win
							// over a dead owner is the classic local fallback; a
							// win over a merely slow one is a latency hedge.
							if outcome.PrimaryErr != nil {
								s.met.localFallbacks.Add(1)
							} else {
								s.met.hedgeLocalWins.Add(1)
							}
						} else {
							s.met.peerHits.Add(1)
							s.results.Put(key, blob)
						}
						return blob, nil
					}
					if ctx.Err() != nil {
						return nil, ctx.Err()
					}
					if outcome.SecondaryStarted {
						// Local compute already ran (and failed) inside the
						// hedge; running it again would double the work.
						return nil, err
					}
					s.met.localFallbacks.Add(1)
				}
			}
		}
		return localCompute(ctx)
	})
	if shared {
		s.met.dedupHits.Add(1)
	}
	if err != nil {
		var shed *overload.ShedError
		switch {
		case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
			s.met.timeouts.Add(1)
		case errors.As(err, &shed):
			// Counted at the shed site; not an internal error.
		default:
			s.met.errors.Add(1)
		}
		return nil, err
	}
	return buf, nil
}

// protect runs one computation with panic containment: a panic anywhere
// in the model/evaluation stack is converted to a *core.InternalError
// (HTTP 500) and counted, while the deferred worker-slot and drain
// bookkeeping in do() proceeds normally — one poisoned request must not
// leak a slot or take the daemon down. The stack is logged server-side;
// clients only see the recovered value.
func (s *Service) protect(ctx context.Context, compute func(ctx context.Context) (any, error)) (resp any, err error) {
	defer func() {
		if r := recover(); r != nil {
			ie := &core.InternalError{Recovered: r, Stack: debug.Stack()}
			s.met.panics.Add(1)
			log.Printf("service: recovered panic in compute: %v\n%s", r, ie.Stack)
			resp, err = nil, ie
		}
	}()
	if faults.Fire(faults.ServicePanic) {
		panic("faults: injected service panic")
	}
	return compute(ctx)
}

// prepared is the common front half of both request kinds. The resolved
// network is retained so a brownout downgrade can bind a substitute 2RM
// model against the same topology.
type prepared struct {
	bench   *iccad.Benchmark
	entry   *modelEntry
	ref     CaseRef
	ms      ModelSpec
	net     *network.Network
	netHash string
}

// downgradeEntry returns the model entry a brownout downgrade should
// compute with: the cheap 2RM binding of the same (case, network) when
// the ladder is at LevelDowngrade+ and the request asked for the full
// 4RM model. ok reports that a substitution happened — the response
// must be flagged Degraded and must not be cached.
func (s *Service) downgradeEntry(p *prepared) (*modelEntry, bool) {
	if s.brown.Level() < overload.LevelDowngrade || p.ms.Model == "2rm" {
		return p.entry, false
	}
	sub := ModelSpec{Model: "2rm", CoarseM: 4, Upwind: p.ms.Upwind}
	e, err := s.model(p.ref, sub, p.bench, p.net, p.netHash)
	if err != nil {
		// The substitute failed to build; serve full fidelity rather than
		// failing the request over an optimization.
		return p.entry, false
	}
	return e, true
}

func (s *Service) prepare(ref CaseRef, ms ModelSpec, ns NetworkSpec) (*prepared, error) {
	if ref.Case < 1 {
		return nil, badRequest("case must be >= 1")
	}
	ms, err := ms.normalize()
	if err != nil {
		return nil, err
	}
	b, scale, err := s.bench(ref)
	if err != nil {
		return nil, err
	}
	ref.Scale = scale // pin the effective scale into the cache key
	n, err := ns.resolve(&b.Instance)
	if err != nil {
		return nil, err
	}
	netHash := n.CanonicalHash()
	entry, err := s.model(ref, ms, b, n, netHash)
	if err != nil {
		return nil, err
	}
	return &prepared{bench: b, entry: entry, ref: ref, ms: ms, net: n, netHash: netHash}, nil
}

// Simulate runs (or serves from cache) one steady probe at req.Psys.
func (s *Service) Simulate(ctx context.Context, req SimulateRequest) ([]byte, error) {
	if req.Psys <= 0 {
		s.met.errors.Add(1)
		return nil, badRequest("psys must be positive, got %g", req.Psys)
	}
	p, err := s.prepare(req.CaseRef, req.ModelSpec, req.Network)
	if err != nil {
		s.met.errors.Add(1)
		return nil, err
	}
	key := cacheKey("simulate", p.ref, p.ms, p.netHash, req.Psys)
	// The forwarded copy carries the pinned scale and normalized model so
	// a peer with different defaults derives the same cache key.
	fwd := req
	fwd.CaseRef, fwd.ModelSpec = p.ref, p.ms
	return s.do(ctx, key, "/v1/simulate", fwd, req.TimeoutMS, overload.Interactive, func(ctx context.Context) (any, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		entry, subbed := s.downgradeEntry(p)
		out, err := entry.sim(req.Psys)
		if err != nil {
			return nil, err
		}
		resp := &SimulateResponse{
			CacheKey: key, Psys: out.Psys, DeltaT: out.DeltaT, Tmax: out.Tmax,
			Wpump: out.Wpump, Qsys: out.Qsys, Rsys: out.Rsys, SolveIters: out.SolveIters,
			Degraded: out.Probe.Degraded || subbed,
		}
		if subbed {
			return &downgradedResponse{resp: resp}, nil
		}
		return resp, nil
	})
}

// Evaluate runs (or serves from cache) the Algorithm 2/3 evaluation.
func (s *Service) Evaluate(ctx context.Context, req EvaluateRequest) ([]byte, error) {
	problem := req.Problem
	if problem == 0 {
		problem = 1
	}
	if problem != 1 && problem != 2 {
		s.met.errors.Add(1)
		return nil, badRequest("problem must be 1 or 2, got %d", req.Problem)
	}
	p, err := s.prepare(req.CaseRef, req.ModelSpec, req.Network)
	if err != nil {
		s.met.errors.Add(1)
		return nil, err
	}
	key := cacheKey("evaluate", p.ref, p.ms, p.netHash, float64(problem), req.WpumpStar)
	fwd := req
	fwd.CaseRef, fwd.ModelSpec, fwd.Problem = p.ref, p.ms, problem
	return s.do(ctx, key, "/v1/evaluate", fwd, req.TimeoutMS, overload.Interactive, func(ctx context.Context) (any, error) {
		in := &p.bench.Instance
		opt := s.cfg.Search
		entry, subbed := s.downgradeEntry(p)
		// An evaluation runs many probes; the degraded count of the
		// entry's factored system advancing during this computation means
		// at least one of them needed a fallback rung.
		deg0 := entry.stats().Degraded
		var r core.EvalResult
		var err error
		if problem == 1 {
			r, err = core.EvaluatePumpMin(ctx, entry.sim, in.DeltaTStar, in.TmaxStar, opt)
		} else {
			wstar := req.WpumpStar
			if wstar <= 0 {
				wstar = in.WpumpStar
			}
			pinit := opt.PInit
			if pinit <= 0 {
				pinit = 10e3
			}
			// Any probe yields R_sys, which converts the pumping budget
			// into the pressure budget of Eq. (10).
			var out *thermal.Outcome
			out, err = entry.sim(pinit)
			if err == nil {
				budget := core.PressureBudget(wstar, out.Rsys)
				r, err = core.EvaluateGradMin(ctx, entry.sim, in.TmaxStar, budget, opt)
			}
		}
		if err != nil {
			return nil, err
		}
		resp := &EvaluateResponse{
			CacheKey: key, Problem: problem, Feasible: r.Feasible,
			Psys: r.Psys, Wpump: r.Wpump, DeltaT: r.DeltaT, Probes: r.Probes,
			Degraded: entry.stats().Degraded > deg0 || subbed,
		}
		if r.Out != nil {
			resp.Tmax = r.Out.Tmax
			resp.Degraded = resp.Degraded || r.Out.Probe.Degraded
		}
		if subbed {
			return &downgradedResponse{resp: resp}, nil
		}
		return resp, nil
	})
}

// Metrics snapshots the service counters, including the aggregate
// factored-system amortization stats of every warm cached model.
func (s *Service) Metrics() MetricsSnapshot {
	hits, misses := s.met.cacheHits.Load(), s.met.cacheMisses.Load()
	qs := s.met.lat.quantiles(0.50, 0.95)
	snap := MetricsSnapshot{
		UptimeSec:     time.Since(s.met.start).Seconds(),
		Requests:      s.met.requests.Load(),
		CacheHits:     hits,
		CacheMisses:   misses,
		DedupHits:     s.met.dedupHits.Load(),
		Evaluations:   s.met.evaluations.Load(),
		Timeouts:      s.met.timeouts.Load(),
		Errors:        s.met.errors.Load(),
		Rejected:      s.met.rejected.Load(),
		Panics:        s.met.panics.Load(),
		CacheHitRate:  ratio(hits, hits+misses),
		DedupRate:     ratio(s.met.dedupHits.Load(), s.met.requests.Load()),
		QueueDepth:    s.met.queueDepth.Load(),
		InFlight:      s.met.inFlight.Load(),
		LatencyP50Ms:  float64(qs[0]) / float64(time.Millisecond),
		LatencyP95Ms:  float64(qs[1]) / float64(time.Millisecond),
		ResultsCached: s.results.Len(),
		ModelsCached:  s.models.Len(),

		StoreHits:        s.met.storeHits.Load(),
		StoreMisses:      s.met.storeMisses.Load(),
		PeerHits:         s.met.peerHits.Load(),
		LocalFallbacks:   s.met.localFallbacks.Load(),
		StoreFetchServed: s.met.storeFetchServed.Load(),
	}
	if s.cfg.Store != nil {
		st := s.cfg.Store.Stats()
		snap.Store = &st
	}
	if s.cfg.Cluster != nil {
		st := s.cfg.Cluster.Stats()
		snap.Cluster = &st
	}
	snap.Overload = OverloadSnapshot{
		Admission:        s.adm.Snapshot(),
		Brownout:         s.brown.Snapshot(),
		Shed:             s.met.shed.Load(),
		Hedges:           s.met.hedges.Load(),
		HedgeLocalWins:   s.met.hedgeLocalWins.Load(),
		DowngradedServed: s.met.downgradedServed.Load(),
		FillsPaused:      s.met.fillsPaused.Load(),
		PeerTierSkips:    s.met.peerTierSkips.Load(),
	}
	s.models.Each(func(_ string, v any) {
		e := v.(*modelEntry)
		if e.stats == nil {
			return
		}
		st := e.stats()
		snap.Factor.Probes += st.Probes
		snap.Factor.WarmStarts += st.WarmStarts
		snap.Factor.PrecondBuilds += st.PrecondBuilds
		snap.Factor.SolveIters += st.SolveIters
		snap.Factor.RetryRebuild += st.RetryRebuild
		snap.Factor.RetryGMRES += st.RetryGMRES
		snap.Factor.RetryDense += st.RetryDense
		snap.Factor.Degraded += st.Degraded
		mg := &snap.Factor.Multigrid
		mg.VCycles += st.MG.VCycles
		mg.SmootherSweeps += st.MG.SmootherSweeps
		mg.SmootherBuilds += st.MG.SmootherBuilds
		mg.CoarseSolves += st.MG.CoarseSolves
		mg.Updates += st.MG.Updates
		mg.LatchOffs += int64(st.MGLatchOffs)
	})
	if snap.Factor.Probes > 0 {
		snap.Factor.WarmStartRate = float64(snap.Factor.WarmStarts) / float64(snap.Factor.Probes)
	}
	snap.Transient = TransientSnapshot{
		Runs:           s.met.transientRuns.Load(),
		Steps:          s.met.transientSteps.Load(),
		Factorizations: s.met.transientFactorizations.Load(),
	}
	if snap.Transient.Factorizations > 0 {
		snap.Transient.StepsPerFactorization =
			float64(snap.Transient.Steps) / float64(snap.Transient.Factorizations)
	}
	js := s.jobs.Stats()
	snap.Optimize.Runs = s.met.optimizeRuns.Load()
	snap.Optimize.Checkpoints = js.Checkpoints
	snap.Optimize.Resumes = js.Resumes
	snap.Optimize.Recovered = js.Recovered
	snap.Optimize.States = js.States
	snap.Optimize.EventsDropped = js.EventsDropped
	snap.Overload.JobsShed = js.Shed
	for _, rec := range s.jobs.List() {
		p := OptimizeProgress{
			ID: rec.ID, Key: rec.Key, State: string(rec.State),
			Stage: rec.Stage, Chains: rec.Chains,
			CheckpointSeq: rec.CheckpointSeq, Resumes: rec.Resumes,
			CompletedUnixMS: rec.CompletedUnixMS,
		}
		snap.Optimize.Jobs = append(snap.Optimize.Jobs, p)
		switch rec.State {
		case jobs.StateRunning:
			snap.Optimize.Active++
		case jobs.StatePending, jobs.StateCheckpointed:
			snap.Optimize.Queued++
		}
	}
	snap.Faults = faults.Snapshot()
	return snap
}
