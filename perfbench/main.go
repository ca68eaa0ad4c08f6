// Command perfbench is lcn3d's benchmark: it runs one workload end to
// end, checks the outputs, and prints every metric by name and unit. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with
// tracing off; with -trace 1 they are the per-layer ones from a separate
// traced run. See README.md for the workloads and the metric mapping.
//
//	bash perfbench/run.sh --workload sa-p1 --seed 1 --seconds 20 --trace 0
//
// run.sh builds it and runs it from the repository root; it writes only
// under .bench_build/ and exits non-zero when a correctness gate fails.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// scale is the square grid of every workload: the paper's Table 3/4
// scale.
const scale = 51

// runBudget keeps every run under the 180 s a run may take.
const runBudget = 170 * time.Second

// outDir holds results and traces, inside the checkout and ignored by git.
const outDir = ".bench_build"

type metricDef struct {
	Name, Unit, Better string
	Bound              float64 // end-to-end only: allowed worsening, share of the median
}

// endToEnd is reported by every workload with tracing off. Each workload
// maps the generic names onto its own user-visible operation (README.md).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"tail_ms", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"ok_frac", "ratio", "higher", 0.05},
	{"max_rss_mb", "MB", "lower", 0.25},
}

// perLayer is reported by every workload's traced run. A layer the
// workload does not touch reads 0.
var perLayer = []metricDef{
	{"anneal.sweep_s", "s", "lower", 0},
	{"anneal.stage1_s", "s", "lower", 0},
	{"anneal.stage2_s", "s", "lower", 0},
	{"anneal.stage3_s", "s", "lower", 0},
	{"anneal.stage4_s", "s", "lower", 0},
	{"anneal.final_s", "s", "lower", 0},
	{"anneal.evals", "count", "lower", 0},
	{"anneal.topo_hit_rate", "ratio", "higher", 0},
	{"anneal.wpump_mw", "mW", "lower", 0},
	{"anneal.split_s.build", "s", "lower", 0},
	{"anneal.split_s.cold_probe", "s", "lower", 0},
	{"anneal.split_s.warm_probe", "s", "lower", 0},
	{"anneal.split_s.search", "s", "lower", 0},
	{"core.eval_ms.rm2", "ms", "lower", 0},
	{"core.eval_ms.rm4", "ms", "lower", 0},
	{"core.naive_eval_ms.rm2", "ms", "lower", 0},
	{"core.probes_per_eval", "count", "lower", 0},
	{"core.search_self_ms", "ms", "lower", 0},
	{"core.memo_hit_rate", "ratio", "higher", 0},
	{"network.build_ms", "ms", "lower", 0},
	{"network.hash_ms", "ms", "lower", 0},
	{"flow.solve_ms", "ms", "lower", 0},
	{"thermal.build_ms.rm2", "ms", "lower", 0},
	{"thermal.build_ms.rm4", "ms", "lower", 0},
	{"thermal.cold_probe_ms.rm2", "ms", "lower", 0},
	{"thermal.cold_probe_ms.rm4", "ms", "lower", 0},
	{"thermal.warm_probe_ms.rm2", "ms", "lower", 0},
	{"thermal.warm_probe_ms.rm4", "ms", "lower", 0},
	{"thermal.assembly_share", "ratio", "lower", 0},
	{"thermal.iters_per_probe", "count", "lower", 0},
	{"thermal.warm_start_rate", "ratio", "higher", 0},
	{"thermal.precond_builds", "count", "lower", 0},
	{"thermal.precond_updates", "count", "lower", 0},
	{"thermal.escalations", "count", "lower", 0},
	{"thermal.degraded", "count", "lower", 0},
	{"solver.mg_vcycles", "count", "lower", 0},
	{"transient.step_ms.p50", "ms", "lower", 0},
	{"transient.step_ms.tail", "ms", "lower", 0},
	{"transient.segment_step_ms", "ms", "lower", 0},
	{"transient.factorizations", "count", "lower", 0},
	{"transient.iters_per_step", "count", "lower", 0},
	{"serve.hot_p50_ms", "ms", "lower", 0},
	{"serve.hot_tail_ms", "ms", "lower", 0},
	{"serve.warm_p50_ms", "ms", "lower", 0},
	{"serve.warm_tail_ms", "ms", "lower", 0},
	{"serve.cold_p50_ms", "ms", "lower", 0},
	{"serve.cold_tail_ms", "ms", "lower", 0},
	{"serve.goodput_rps", "1/s", "higher", 0},
	{"serve.capacity_rps", "1/s", "higher", 0},
	{"serve.fail_frac", "ratio", "lower", 0},
	{"service.hit_rate", "ratio", "higher", 0},
	{"service.evaluations", "count", "lower", 0},
	{"service.models_cached", "count", "higher", 0},
	{"service.errors", "count", "lower", 0},
	{"overload.shed", "count", "lower", 0},
	{"overload.brownout_max", "count", "lower", 0},
	{"store.puts", "count", "lower", 0},
	{"store.flushes", "count", "lower", 0},
	{"cluster.forwards", "count", "lower", 0},
	{"cluster.fetches", "count", "lower", 0},
	{"cluster.peer_hits", "count", "higher", 0},
	{"cluster.local_fallbacks", "count", "lower", 0},
	{"cluster.hedges", "count", "lower", 0},
	{"client.lat_ms.owner.p50", "ms", "lower", 0},
	{"client.lat_ms.owner.tail", "ms", "lower", 0},
	{"client.lat_ms.forwarded.p50", "ms", "lower", 0},
	{"client.lat_ms.forwarded.tail", "ms", "lower", 0},
	{"client.late_ms", "ms", "lower", 0},
	{"trace.overhead_frac", "ratio", "lower", 0},
	{"trace.coverage", "ratio", "higher", 0},
	{"trace.spans", "count", "lower", 0},
}

// workloads maps each -workload name to its runner.
var workloads = map[string]func(*bench) error{
	"sa-p1":         runSA,
	"serve-mix":     runServe,
	"transient-4rm": runTransient,
}

// bench is one run's inputs and the report it fills.
type bench struct {
	ctx      context.Context
	workload string
	seed     int64
	window   time.Duration // the -seconds measuring window
	tr       *tracer       // nil on the timed (untraced) run

	values    map[string]float64
	notes     []string
	attempted int
	failed    int
	gateErrs  []string
}

func (b *bench) traced() bool { return b.tr != nil }

func (b *bench) set(name string, v float64) { b.values[name] = v }

func (b *bench) note(format string, args ...any) {
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
}

// setDist records a latency distribution as <p50Name> and <tailName>,
// noting the sample count and the tail's percentile.
func (b *bench) setDist(p50Name, tailName string, d dist) {
	b.set(p50Name, d.P50)
	b.set(tailName, d.Tail)
	b.note("%s/%s: n=%d, tail at p%.1f", p50Name, tailName, d.N, d.TailPc)
}

// gate records a correctness check; a failed one makes the run incorrect.
func (b *bench) gate(ok bool, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if ok {
		b.note("gate ok: %s", msg)
		return
	}
	b.gateErrs = append(b.gateErrs, msg)
}

// setup times fn n times and records setup_s as the median; it returns
// the last set-up's value, which the run then uses. Each set-up starts
// from a collected heap, as the one set-up of a fresh process does, so
// neither its time nor the peak RSS depends on when the garbage of the
// previous ones happens to be collected.
func setupMedian[T any](b *bench, n int, fn func() (T, error), teardown func(T)) (T, error) {
	var last T
	var ds []float64
	for i := 0; i < n; i++ {
		if i > 0 && teardown != nil {
			teardown(last)
		}
		var zero T
		last = zero // the previous set-up's value is garbage from here on
		runtime.GC()
		t0 := time.Now()
		v, err := fn()
		if err != nil {
			return last, fmt.Errorf("setup: %w", err)
		}
		ds = append(ds, time.Since(t0).Seconds())
		last = v
	}
	b.set("setup_s", medianOf(ds))
	b.note("setup_s: median of %d set-ups %v", n, ds)
	return last, nil
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// sourceDigest hashes the Go sources the benchmark builds from, so a
// result names its code even outside a git checkout.
func sourceDigest() string {
	h := sha256.New()
	var files []string
	for _, root := range []string{"go.mod", "internal", "perfbench"} {
		filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && (strings.HasSuffix(p, ".go") || strings.HasSuffix(p, ".mod")) {
				files = append(files, p)
			}
			return nil
		})
	}
	sort.Strings(files)
	for _, f := range files {
		buf, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", f, len(buf))
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func main() {
	workload := flag.String("workload", "", "workload: sa-p1 | serve-mix | transient-4rm")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "measuring window, s")
	traceFlag := flag.Int("trace", 0, "0 = timed run (end-to-end metrics), 1 = traced run (per-layer metrics)")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload sa-p1|serve-mix|transient-4rm, -seconds >= 1, -trace 0|1\n")
		os.Exit(2)
	}
	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()
	b := &bench{
		ctx: ctx, workload: *workload, seed: *seed,
		window: time.Duration(*seconds) * time.Second,
		values: map[string]float64{},
	}
	if *traceFlag == 1 {
		b.tr = newTracer()
	}
	env := map[string]any{
		"go": runtime.Version(), "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"commit": gitCommit(), "source_digest": sourceDigest(),
		"workload": *workload, "seed": *seed, "seconds": *seconds, "trace": *traceFlag,
		"scale": scale, "date": time.Now().UTC().Format(time.RFC3339),
	}
	envJSON, _ := json.Marshal(env) // a map of plain values always encodes
	fmt.Printf("env %s\n", envJSON)

	if err := run(b); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	b.set("max_rss_mb", maxRSSMB())

	defs := endToEnd
	if b.traced() {
		defs = perLayer
	}
	res := resultLine{Correct: len(b.gateErrs) == 0, Attempted: b.attempted, Failed: b.failed,
		Metrics: map[string]metricOut{}}
	for _, d := range defs {
		v, ok := b.values[d.Name]
		if !ok && !b.traced() {
			fmt.Fprintf(os.Stderr, "perfbench: %s did not measure %s\n", *workload, d.Name)
			os.Exit(1)
		}
		res.Metrics[d.Name] = metricOut{Value: v, Unit: d.Unit}
	}
	for _, n := range b.notes {
		fmt.Println("note", n)
	}
	for _, d := range defs {
		fmt.Printf("metric %-30s %14.6g %-6s (%s is better)\n", d.Name, res.Metrics[d.Name].Value, d.Unit, d.Better)
	}
	for _, e := range b.gateErrs {
		fmt.Printf("GATE FAILED: %s\n", e)
	}
	path := filepath.Join(outDir, "results", fmt.Sprintf("%s-seed%d-trace%d.json", *workload, *seed, *traceFlag))
	if err := writeResult(path, env, res, b.notes, b.gateErrs); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// writeResult keeps the full record of a run (environment, metrics,
// sample counts, gate outcomes) next to the one-line result.
func writeResult(path string, env map[string]any, res resultLine, notes, gateErrs []string) error {
	buf, err := json.MarshalIndent(map[string]any{
		"env": env, "result": res, "notes": notes, "gate_failures": gateErrs,
	}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
