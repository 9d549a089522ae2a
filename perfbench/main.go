// Command perfbench is the end-to-end benchmark of the typed-commitment
// path: an in-process node stack wired as cmd/typecoind wires a
// persistent group-commit node, driven by one closed-loop generator.
//
//	bash perfbench/run.sh --workload commit --seed 1 --seconds 27 --trace 0
//	bash perfbench/run.sh --selftest
//
// Workloads (BENCHMARK.json records why each exists):
//
//   - commit: rounds of 32 pass-through token transfers over 64
//     lineages, each round submitted with client.Submit, mined with
//     BuildBlock, SolveBlock and ProcessBlock, then waited on until every
//     commitment is committed: applied by the ledger, durable, and
//     visible in the index. The node is preloaded with 45,000 plain
//     outputs and 512 typed grants (about 97,000 store keys) so that a
//     27-second run's own writes move the store's key count by about a
//     tenth and per-round cost stays roughly level.
//   - claim-audit: trust-free audits of 64 lineages with upstream depths
//     spread over 1..32 bundles (one in four starts from the newcoin
//     merge proof, one in eight passes through a batch withdrawal), on
//     the same loaded node, with no new blocks. One audit in eight
//     presents a tampered claim that must be rejected.
//   - reorg-hostile: the commit loop on a small node; every 8 rounds a
//     heavier coinbase-only branch of depth 1, 2 or 3 reorganizes the
//     chain, and one commitment in 16 carries an ill-typed proof that
//     must never apply.
//   - relay: two stacks joined by one loopback TCP connection; 8
//     commitments per block are submitted and mined on one node and
//     measured committed on the other.
//
// With --trace 0 the last line of standard output is a JSON object with
// the end-to-end metrics shared by all workloads (operations per second,
// median operation latency, peak RSS, set-up time); with --trace 1
// it carries the per-layer metrics of a run in which every second
// operation is traced, and spans are written under the output
// directory. The lines before it print every metric the workload
// defines with its unit (commit_*, submit_*, claim_*, reorg_*,
// op_fail_ratio), the host fingerprint and the run's configuration.
//
// The exit status is non-zero when a correctness gate fails: a
// commitment not committed, a valid claim rejected, a tampered claim or
// ill-typed commitment accepted, relay nodes disagreeing, or a
// from-genesis audit of chain, ledger or index failing.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	interval time.Duration
	out      string
	selftest bool
	rounds   int  // fixed operation count instead of a time window
	smoke    bool // shrink the preload
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var seconds float64
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run: commit, claim-audit, reorg-hostile or relay")
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&seconds, "seconds", 27, "length of the timed window")
	fs.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run")
	fs.DurationVar(&o.interval, "commit-interval", 2*time.Millisecond, "group-commit window (the daemon's -commit-interval)")
	fs.StringVar(&o.out, "out", ".bench_build", "directory for node data and span dumps")
	fs.BoolVar(&o.selftest, "selftest", false, "check same-seed determinism and smoke every workload")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.seconds = time.Duration(seconds * float64(time.Second))
	o.trace = trace == 1
	if o.selftest {
		return selftest(o)
	}
	w, ok := findWorkload(o.workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", o.workload)
		return 2
	}
	res, err := execute(o, w)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	out := bufio.NewWriter(os.Stdout)
	res.print(out, o)
	out.Flush()
	if !res.correct {
		for _, p := range res.problems {
			fmt.Fprintln(os.Stderr, "perfbench: correctness:", p)
		}
		return 1
	}
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one run reports.
type result struct {
	correct   bool
	problems  []string
	attempted int
	failed    int
	info      []string          // host fingerprint and configuration
	named     map[string]metric // every end-to-end metric the workload defines
	endToEnd  map[string]metric // the BENCHMARK.json end-to-end set
	layers    map[string]metric
	digest    string // committed carriers, for the self-test
	counts    string // deterministic counts, for the self-test
}

// execute runs one workload in this process.
func execute(o options, w workload) (*result, error) {
	r := &runner{opts: o, w: w}
	defer r.closeStacks()
	if err := r.setup(); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	before := r.snapshot()
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	flushes0, batches0, lags0 := r.a.flushStats()
	journal0, compactions0 := r.a.file.JournalBytes(), r.a.file.Compactions()
	applied0 := r.a.ledger.AppliedCount()

	cpu0 := processCPU()
	if err := r.measure(); err != nil {
		return nil, fmt.Errorf("measure: %w", err)
	}

	cpu := processCPU() - cpu0
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	rss := peakRSS()
	flushes1, batches1, lags1 := r.a.flushStats()
	delta := r.snapshot().minus(before)
	journal := r.a.file.JournalBytes() - journal0
	compactions := r.a.file.Compactions() - compactions0
	appliedDelta := r.a.ledger.AppliedCount() - applied0

	if err := r.finish(); err != nil {
		return nil, fmt.Errorf("finish: %w", err)
	}
	keysEnd, err := r.a.storeKeys()
	if err != nil {
		return nil, fmt.Errorf("count store keys: %w", err)
	}
	for _, s := range []*stack{r.a, r.b} {
		if s == nil {
			continue
		}
		if err := s.audit(); err != nil {
			r.problem("%v", err)
		}
		for _, f := range s.faults {
			r.problem("%s", f)
		}
	}
	if o.trace {
		path := filepath.Join(o.out, "trace", fmt.Sprintf("%s-seed%d.jsonl", w.name, o.seed))
		if err := r.tr.write(path); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
	}

	res := &result{named: map[string]metric{}, endToEnd: map[string]metric{}, layers: map[string]metric{}}
	sec := r.elapsed.Seconds()
	ops := r.audits
	opLat := r.claimLat
	if w.claims == 0 {
		ops = len(r.commitLat)
		opLat = r.commitLat
	}
	setup := percentile(r.setupTimes, 0.5)
	res.attempted = r.audits + len(r.commits) + r.submitFail
	res.failed = r.failed + r.submitFail
	if res.attempted == 0 {
		res.attempted = 1
		r.problem("no operation was attempted")
	}

	set := func(m map[string]metric, name string, v float64, unit string) { m[name] = metric{v, unit} }
	set(res.endToEnd, "setup_s", setup.Seconds(), "s")
	set(res.endToEnd, "ops_per_s", float64(ops)/sec, "1/s")
	set(res.endToEnd, "op_p50_ms", ms(percentile(opLat, 0.5)), "ms")
	set(res.endToEnd, "peak_rss_mb", rss, "MiB")

	set(res.named, "setup_s", setup.Seconds(), "s")
	timing := func(name string, ds []time.Duration) {
		for _, q := range []struct {
			suffix string
			q      float64
		}{{"p50", 0.5}, {"p90", 0.9}, {"p95", 0.95}, {"p99", 0.99}} {
			set(res.named, name+"_"+q.suffix+"_ms", ms(percentile(ds, q.q)), "ms")
		}
		set(res.named, name+"_samples", float64(len(ds)), "count")
	}
	op := "commit"
	if w.claims > 0 {
		op = "claim"
	}
	set(res.named, op+"_per_s", float64(ops)/sec, "1/s")
	set(res.named, "op_cpu_ms", 1e3*cpu/float64(max(ops, 1)), "ms")
	if w.claims > 0 {
		set(res.named, "claim_tampered", float64(r.tampered), "count")
		set(res.named, "claim_tampered_rejected", float64(r.rejectOK), "count")
	}
	timing(op, opLat)
	if w.claims == 0 && !w.relay {
		timing("submit", r.ackLat)
	}
	if w.reorgEvery > 0 {
		set(res.named, "reorg_p50_ms", ms(percentile(r.reorgLat, 0.5)), "ms")
		set(res.named, "reorg_samples", float64(len(r.reorgLat)), "count")
	}
	set(res.named, "op_fail_ratio", float64(res.failed)/float64(res.attempted), "ratio")
	set(res.named, "peak_rss_mb", rss, "MiB")

	// Per-layer metrics. busy_s sums span self-time over the traced
	// operations; counts read from the registry cover the whole window.
	agg := r.tr.aggregate()
	L := res.layers
	commits := float64(max(len(r.commitLat), 1))
	for _, name := range []string{
		"client.submit", "typecoin.carrier_outputs", "wallet.build", "typecoin.verify_embedding",
		"mempool.accept", "ledger.announce", "p2p.broadcast", "miner.build_block", "miner.solve",
		"chain.process_block", "chain.connect", "index.notify", "mempool.notify", "wallet.notify",
		"ledger.notify_connect", "ledger.notify_disconnect", "p2p.notify", "chain.reorg",
		"store.durable_wait", "p2p.tx_relay_wait", "p2p.relay_wait", "ledger.applied", "index.query",
		"ledger.resolve_output", "ledger.upstream_bundles", "typecoin.claim_codec", "typecoin.verify_claim",
	} {
		set(L, name+".busy_s", busy(agg, name), "s")
	}
	set(L, "client.submit.count", spanCount(agg, "client.submit"), "count")
	set(L, "client.submit.fail", float64(r.submitFail), "count")
	set(L, "mempool.accept.fail", float64(r.acceptFail), "count")
	set(L, "miner.solve.attempts", float64(r.attempts), "count")
	set(L, "chain.script_jobs.count", delta["chain_script_jobs_total"], "count")
	set(L, "sigcache.hit_ratio", ratio(delta["sigcache_hits_total"], delta["sigcache_hits_total"]+delta["sigcache_misses_total"]), "ratio")
	set(L, "ledger.apply_ratio", ratio(float64(appliedDelta), float64(len(r.commits))), "ratio")
	rejected := 0
	for _, c := range r.commits {
		if c.bad {
			rejected++
		}
	}
	set(L, "ledger.rejected.count", float64(rejected), "count")
	set(L, "store.flush.count", delta["store_group_flushes_total"], "count")
	set(L, "store.batches_per_flush", ratio(float64(batches1-batches0), float64(flushes1-flushes0)), "count")
	set(L, "store.flush_lag_p50_ms", ms(percentile(lags1[len(lags0):], 0.5)), "ms")
	set(L, "store.journal_bytes_per_commit", float64(journal)/commits, "bytes")
	set(L, "store.compactions.count", float64(compactions), "count")
	set(L, "store.keys", float64(r.preloadKeys), "count")
	set(L, "store.keys_growth_ratio", ratio(float64(keysEnd-r.preloadKeys), float64(r.preloadKeys)), "ratio")
	set(L, "index.query.p50_us", float64(percentileOf(agg, "index.query", 0.5))/1e3, "us")
	set(L, "index.rows_written.count", delta["index_rows_written_total"], "count")
	verify := agg["typecoin.verify_claim"]
	tracedBundles := 0.0
	if verify != nil && r.audits > 0 {
		tracedBundles = float64(r.bundles) * float64(verify.count) / float64(r.audits)
	}
	set(L, "typecoin.verify_claim.bundles", float64(r.bundles), "count")
	set(L, "typecoin.verify_claim.us_per_bundle", ratio(busy(agg, "typecoin.verify_claim")*1e6, tracedBundles), "us")
	set(L, "p2p.bytes_per_commit", (delta["p2p_sent_bytes_total"]+delta["p2p_recv_bytes_total"])/commits, "bytes")
	set(L, "p2p.msgs_per_commit", (delta["p2p_sent_messages_total"]+delta["p2p_recv_messages_total"])/commits, "count")
	set(L, "p2p.block_lag.busy_s", r.blockLag.Seconds(), "s")
	set(L, "p2p.penalties.count", delta["p2p_misbehavior_points_total"]+delta["b.p2p_misbehavior_points_total"], "count")
	opsAll := float64(max(ops, 1))
	set(L, "runtime.gc_cycles", float64(ms1.NumGC-ms0.NumGC), "count")
	set(L, "runtime.gc_pause_s", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e9, "s")
	set(L, "runtime.alloc_bytes_per_commit", float64(ms1.TotalAlloc-ms0.TotalAlloc)/opsAll, "bytes")
	set(L, "trace.coverage", coverage(agg), "ratio")
	overhead := 0.0
	if len(r.opWalls[0]) > 0 && len(r.opWalls[1]) > 0 {
		overhead = sum(r.opWalls[1]).Seconds()/float64(len(r.opWalls[1]))/
			(sum(r.opWalls[0]).Seconds()/float64(len(r.opWalls[0]))) - 1
	}
	set(L, "trace.overhead", overhead, "ratio")
	for _, c := range rawCounters {
		set(L, "counter."+c, delta[c], "count")
	}

	counts := fmt.Sprintf("commits=%d applied=%d rows=%.0f attempts=%d bundles=%d audits=%d",
		len(r.digest), r.a.ledger.AppliedCount(), delta["index_rows_written_total"], r.attempts, r.bundles, r.audits)
	if err := r.closeStacks(); err != nil {
		r.problem("shutdown: %v", err)
	}
	res.problems = r.problems
	res.correct = len(r.problems) == 0
	res.info = r.info(o)
	for k, v := range delta {
		if reason, ok := strings.CutPrefix(k, "mempool_rejected_total"); ok && reason != "" && v != 0 {
			res.info = append(res.info, fmt.Sprintf("mempool_rejected %s %.0f", reason, v))
		}
	}
	h := sha256.New()
	for _, c := range r.digest {
		h.Write(c[:])
	}
	res.digest = fmt.Sprintf("%x", h.Sum(nil))
	res.counts = counts
	return res, nil
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// percentileOf is percentile over the durations of one span name.
func percentileOf(agg map[string]*layerStat, name string, q float64) time.Duration {
	if st := agg[name]; st != nil {
		return percentile(st.durs, q)
	}
	return 0
}

// rawCounters are the registry counters reported as they are; the
// others in counterNames feed named per-layer metrics.
var rawCounters = []string{
	"sigcache_hits_total", "sigcache_misses_total", "mempool_rejected_total",
	"miner_hash_attempts_total", "chain_reorgs_total", "p2p_sent_bytes_total",
	"p2p_recv_bytes_total", "p2p_sent_messages_total", "p2p_recv_messages_total",
}

// counterNames are the registry counters read as per-run deltas; the
// relay peer's are prefixed "b.".
var counterNames = []string{
	"sigcache_hits_total", "sigcache_misses_total", "store_group_flushes_total",
	"index_rows_written_total", "mempool_rejected_total", "miner_hash_attempts_total",
	"chain_script_jobs_total", "chain_reorgs_total", "p2p_sent_bytes_total",
	"p2p_recv_bytes_total", "p2p_sent_messages_total", "p2p_recv_messages_total",
	"p2p_misbehavior_points_total",
}

type counterSet map[string]float64

func (r *runner) snapshot() counterSet {
	out := counterSet{}
	for _, n := range counterNames {
		out[n] = r.a.counter(n)
		if r.b != nil {
			out["b."+n] = r.b.counter(n)
		}
	}
	for reason, v := range r.a.reg.VecValues("mempool_rejected_total") {
		out["mempool_rejected_total"+reason] = float64(v)
	}
	return out
}

func (c counterSet) minus(o counterSet) counterSet {
	out := counterSet{}
	for k, v := range c {
		out[k] = v - o[k]
	}
	return out
}

// info returns the host fingerprint and the run's configuration.
func (r *runner) info(o options) []string {
	return []string{
		fmt.Sprintf("host cpu=%q nproc=%d gomaxprocs=%d go=%s", cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version()),
		fmt.Sprintf("config workload=%s seed=%d seconds=%g trace=%v commit_interval=%v sync_every=0 store_retries=%d",
			r.w.name, o.seed, o.seconds.Seconds(), o.trace, o.interval, storeRetries),
		fmt.Sprintf("preload store_keys=%d fanout_outputs=%d typed_grants=%d lineages=%d setups=%s",
			r.preloadKeys, r.scale(r.w.fanout), r.scale(r.w.grants), len(r.lins), durations(r.setupTimes)),
	}
}

func durations(ds []time.Duration) string {
	parts := make([]string, len(ds))
	for i, d := range ds {
		parts[i] = fmt.Sprintf("%.3fs", d.Seconds())
	}
	return strings.Join(parts, ",")
}

// print writes the human-readable lines, then the JSON result line.
func (res *result) print(w *bufio.Writer, o options) {
	for _, line := range res.info {
		fmt.Fprintln(w, line)
	}
	for _, group := range []struct {
		label string
		m     map[string]metric
	}{{"metric", res.named}, {"layer", res.layers}} {
		names := make([]string, 0, len(group.m))
		for n := range group.m {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "%s %s %s %s\n", group.label, n, strconv.FormatFloat(group.m[n].Value, 'g', -1, 64), group.m[n].Unit)
		}
	}
	for _, p := range res.problems {
		fmt.Fprintln(w, "problem", p)
	}
	metrics := res.endToEnd
	if o.trace {
		metrics = res.layers
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.correct, res.attempted, res.failed, metrics})
	if err != nil {
		panic("perfbench: encoding result: " + err.Error())
	}
	fmt.Fprintln(w, string(line))
}

// peakRSS reads the process's resident-set high-water mark in MiB.
func peakRSS() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// processCPU is the user and system CPU time this process has used, in
// seconds. Set beside wall time, it tells a slower processor (both
// grow) from waiting (only wall time grows).
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}
