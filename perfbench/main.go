// Command perfbench is the exchange's benchmark. It assembles the
// production stack of cmd/fmore-exchange in-process (exchange.Open on a
// fresh data dir with default options, an analytics aggregator on the
// firehose, analytics.NewHandler in front of exchange.NewHandler, served
// on loopback) and drives one named workload through pkg/client from two
// closed-loop workers, each on its own keep-alive connection with
// retries off:
//
//	go run . --workload bid-storm --seed 1 --seconds 30 --trace 0
//
// It checks every closed round against an auction oracle and the outcome
// history across a restart, prints each metric by name, unit and sample
// count, and ends with one JSON line:
// {"correct", "attempted", "failed", "metrics"}. With --trace 1 it
// measures the workload untraced, then traced (spans at the handler, the
// SDK transport and the firehose sink), replays the recorded inputs into
// the layers' public entry points, and reports the per-layer metrics and
// the tracing overhead. Any oracle, restart or stack-parity failure exits
// non-zero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"
)

type config struct {
	wl      *workload
	seed    int64
	seconds time.Duration
	trace   bool
	work    string // scratch root for data dirs and span dumps
}

func main() {
	name := flag.String("workload", "", "workload: bid-storm, round-churn or read-mix")
	seed := flag.Int64("seed", 1, "workload seed; the same seed sends the same inputs")
	seconds := flag.Int("seconds", 10, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	work := flag.String("workdir", ".bench_build/perfbench", "scratch directory for data dirs and span dumps")
	flag.Parse()
	wl, err := workloadByName(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad flags (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	cfg := config{wl: wl, seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1,
		work: filepath.Join(*work, fmt.Sprintf("run-%d", os.Getpid()))}
	res, err := run(cfg)
	os.RemoveAll(cfg.work) //nolint:errcheck // scratch
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		if res != nil {
			printResult(res)
		}
		os.Exit(1)
	}
	printResult(res)
}

// result is the final line.
type result struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]metricResult `json:"metrics"`
}

type metricResult struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printResult(res *result) {
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// metric is one reported number with its sample count.
type metric struct {
	name  string
	value float64
	unit  string
	n     int
	note  string
}

func (m metric) String() string {
	s := fmt.Sprintf("%-28s %14.6g %-6s n=%d", m.name, m.value, m.unit, m.n)
	if m.note != "" {
		s += "  (" + m.note + ")"
	}
	return s
}

func run(cfg config) (*result, error) {
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	host := machine(cfg.work)
	fmt.Printf("perfbench workload=%s seed=%d seconds=%v trace=%v  %s\n",
		cfg.wl.name, cfg.seed, cfg.seconds.Seconds(), cfg.trace, host)
	if cfg.trace {
		// A traced run measures twice, untraced and traced, and replays:
		// each timed phase gets half the run's seconds so all of it fits.
		cfg.seconds = max(time.Second, cfg.seconds/2)
	}
	m, err := measure(cfg, false)
	if m != nil {
		m.print("end-to-end")
	}
	if err != nil {
		return failedResult(m), err
	}
	if !cfg.trace {
		return &result{Correct: true, Attempted: m.attempted, Failed: m.failed, Metrics: jsonMetrics(m.e2e)}, nil
	}
	t, err := measure(cfg, true)
	if t != nil {
		t.print("end-to-end, traced")
	}
	if err != nil {
		return failedResult(t), err
	}
	fmt.Println("tracing overhead (traced vs untraced):")
	for i, a := range m.e2e {
		b := t.e2e[i]
		fmt.Printf("  %-26s %+7.1f%%\n", a.name, 100*(b.value-a.value)/a.value)
	}
	fmt.Println("per-layer:")
	for _, l := range t.layers {
		fmt.Println("  " + l.String())
	}
	for _, l := range t.layers {
		if l.value < 0 || math.IsNaN(l.value) {
			return failedResult(t), fmt.Errorf("per-layer metric %s is %v", l.name, l.value)
		}
	}
	return &result{Correct: true, Attempted: t.attempted, Failed: t.failed, Metrics: jsonMetrics(t.layers)}, nil
}

// progress notes a finished stage on standard error.
func progress(start time.Time, stage string) {
	fmt.Fprintf(os.Stderr, "perfbench: %-24s %6.2fs\n", stage, time.Since(start).Seconds())
}

func failedResult(m *measurement) *result {
	res := &result{Metrics: map[string]metricResult{}}
	if m != nil {
		res.Attempted, res.Failed = m.attempted, m.failed
	}
	return res
}

func jsonMetrics(ms []metric) map[string]metricResult {
	out := make(map[string]metricResult, len(ms))
	for _, m := range ms {
		v := m.value
		if math.IsInf(v, 1) {
			v = math.MaxFloat64 // a failed operation misses every limit
		}
		out[m.name] = metricResult{Value: v, Unit: m.unit}
	}
	return out
}

// measurement is one workload run on one stack.
type measurement struct {
	e2e       []metric // gated end-to-end metrics, in BENCHMARK.json order
	named     []metric // the workload's own metrics by operation name
	layers    []metric // traced runs only
	attempted int
	failed    int
}

func (m *measurement) print(title string) {
	fmt.Println(title + ":")
	for _, x := range m.named {
		fmt.Println("  " + x.String())
	}
	for _, x := range m.e2e {
		fmt.Println("  " + x.String())
	}
}

// setups is how many times a run sets up; setup_s is their median.
const setups = 3

func measure(cfg config, traced bool) (*measurement, error) {
	sub := "plain"
	if traced {
		sub = "traced"
	}
	base := filepath.Join(cfg.work, sub)
	began := time.Now()
	var setupTimes []float64
	var r *runner
	var tr *tracer
	for k := 0; k < setups; k++ {
		if traced {
			tr = newTracer()
		}
		dir := dataDir(base, k)
		t0 := time.Now()
		rr, err := setUp(cfg.wl, cfg.seed, dir, tr, capacity(cfg))
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		if k < setups-1 {
			if err := rr.shutdown(); err != nil {
				return nil, fmt.Errorf("set-up teardown: %w", err)
			}
			os.RemoveAll(dir) //nolint:errcheck // scratch
			continue
		}
		r = rr
	}
	defer r.shutdown() //nolint:errcheck // the run's verdict comes from the checks below
	progress(began, sub+" set-up")

	var rtBefore runtimeSample
	if traced {
		rtBefore = sampleRuntime()
	}
	p := newPhase(capacity(cfg))
	runtime.GC() // every timed phase starts on a fresh GC cycle
	start := time.Now()
	p.deadline = start.Add(cfg.seconds)
	elapsed := r.runWorkers(p, 0, 1).Sub(start)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapMB := float64(ms.HeapAlloc) / (1 << 20)
	var rtAfter runtimeSample
	if traced {
		rtAfter = sampleRuntime()
	}
	progress(began, sub+" timed phase")

	m := &measurement{}
	bids, closes, rounds, reads := p.bids.summary(), p.closes.summary(), p.rounds.summary(), p.reads.summary()
	m.attempted = bids.attempted() + reads.attempted()
	m.failed = bids.failed + reads.failed
	if cfg.wl.sse {
		m.attempted += rounds.attempted()
		m.failed += rounds.failed
	} else {
		m.attempted += closes.attempted()
		m.failed += closes.failed
	}
	if n, first := r.failures(); n > 0 {
		fmt.Printf("  failures: %d, first: %v\n", n, first)
	}
	secs := elapsed.Seconds()
	rate := func(name, unit string, s summary) metric {
		return metric{name: name, value: float64(s.attempted()-s.failed) / secs, unit: unit, n: s.attempted()}
	}
	q := func(name string, s summary, at float64) metric {
		v, eff, n, ok := s.quantile(at)
		x := metric{name: name, value: v, unit: "ms", n: n}
		if !ok {
			x.value, x.note = math.NaN(), "too few samples"
		} else if eff < at {
			x.note = fmt.Sprintf("reported at p%.1f: %d samples", 100*eff, n)
		}
		return x
	}
	var primary summary
	switch cfg.wl.primary {
	case "bid":
		primary = bids
		m.named = append(m.named, rate("bids_per_s", "1/s", bids), q("bid_p50_ms", bids, 0.5), q("bid_p99_ms", bids, 0.99),
			q("round_p50_ms", rounds, 0.5), q("round_p99_ms", rounds, 0.99))
	case "round":
		primary = rounds
		m.named = append(m.named, rate("rounds_per_s", "1/s", rounds), q("round_p50_ms", rounds, 0.5), q("round_p99_ms", rounds, 0.99))
	case "read":
		primary = reads
		m.named = append(m.named, rate("bids_per_s", "1/s", bids), rate("reads_per_s", "1/s", reads),
			q("read_p50_ms", reads, 0.5), q("read_p99_ms", reads, 0.99))
	}
	m.named = append(m.named, metric{name: "failed_ratio", value: float64(m.failed) / float64(max(1, m.attempted)), unit: "ratio", n: m.attempted})

	// Drain what load left open, read the counters once with load stopped,
	// then (traced) replay, then the restart check and the oracle.
	if err := r.closePending(); err != nil {
		return m, err
	}
	counters := r.st.ex.Metrics()
	var rep *replayResult
	if traced {
		p := newPhase(4 * probeReads)
		if len(tr.durations("http.read")) == 0 {
			p.until = func() bool { return p.reads.len() >= 2*probeReads }
			r.runReads(p)
		}
		var err error
		if rep, err = r.replay(filepath.Join(base, "replay"), min(cfg.seconds, 10*time.Second)); err != nil {
			return m, err
		}
		progress(began, sub+" replay")
	}
	recovers, pages, err := r.restartCheck()
	if err != nil {
		return m, err
	}
	progress(began, sub+" restart check")
	verified := 0
	for _, js := range r.jobs {
		n, err := verifyJob(js, pages[js.def.id])
		if err != nil {
			return m, fmt.Errorf("oracle: %w", err)
		}
		verified += n
	}
	progress(began, sub+" oracle")
	fmt.Printf("  oracle: %d rounds verified; restart: %d cycles byte-identical, continuation closed\n", verified, len(recovers))
	recovery := metric{name: "recover_s", value: durMedian(recovers, time.Second), unit: "s", n: len(recovers)}
	m.named = append(m.named, recovery)

	m.e2e = []metric{
		{name: "setup_s", value: median(setupTimes), unit: "s", n: len(setupTimes)},
		{name: "heap_mb", value: heapMB, unit: "MB", n: 1},
		rate("ops_per_s", "1/s", primary),
		q("op_p50_ms", primary, 0.5),
		q("op_tail_ms", primary, cfg.wl.tail),
	}
	if tail := &m.e2e[len(m.e2e)-1]; tail.note == "" {
		tail.note = fmt.Sprintf("p%g", 100*cfg.wl.tail)
	}
	for _, x := range m.e2e {
		if math.IsNaN(x.value) {
			return m, fmt.Errorf("%s: %s", x.name, x.note)
		}
	}
	if traced {
		m.layers = layers(r, tr, rep, counters, recovery, rtBefore, rtAfter, m.attempted)
		if err := tr.write(filepath.Join(filepath.Dir(cfg.work), fmt.Sprintf("spans-%s-%d.tsv", cfg.wl.name, cfg.seed))); err != nil {
			return m, err
		}
	}
	return m, nil
}

// capacity sizes the preallocated sample storage: generously above the
// reference box's rates, so the timed phase does not grow it.
func capacity(cfg config) int { return int(cfg.seconds.Seconds()) * 30000 }

// runReads runs both workers through read-mix reads until p stops them:
// the read probe of workloads that issue no reads of their own.
func (r *runner) runReads(p *phase) {
	p.readOnly = true
	r.runWorkers(p, 0, 1)
}

// runtimeSample is the process's allocation and GC CPU counters.
type runtimeSample struct {
	mallocs      uint64
	gcCPU, total float64
}

func sampleRuntime() runtimeSample {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return runtimeSample{gcCPU: s[0].Value.Float64(), total: s[1].Value.Float64(), mallocs: s[2].Value.Uint64()}
}

// machine describes the host for the report header.
func machine(dir string) string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d %s fs=%s", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), fsType(dir))
}
