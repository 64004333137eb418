// Command perfbench is the repository benchmark: four closed-loop
// workloads, each driving real core.Clients against real servers,
// cluster nodes and proxies in one process, over loopback sockets.
//
//	go run . --workload hot-replicated --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object: whether the
// workload's output check passed, how many ops were attempted and
// failed, and the metrics — end-to-end with --trace 0, per-layer with
// --trace 1. README.md explains the workloads and every metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"interweave/internal/obs"
)

// workloads, in the order README.md describes them.
var workloads = []struct {
	name  string
	setup func(*env) (topology, error)
}{
	{"hetero-bulk", setupHetero},
	{"hot-replicated", setupHot},
	{"proxy-read", setupProxyRead},
	{"cold-sweep", setupCold},
}

// numSetups is how many times an untraced run sets its topology up;
// setup_s is the median.
const numSetups = 9

// numWindows is how many equal slices the timed phase is cut into;
// every latency and rate figure is a median over them.
const numWindows = 10

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	dir      string
	setups   int // set-ups of an untraced run; setup_s is their median
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: hetero-bulk, hot-replicated, proxy-read or cold-sweep")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed phase")
	flag.IntVar(&trace, "trace", 0, "1 prints per-layer metrics from a traced run instead of end-to-end metrics")
	flag.StringVar(&cfg.dir, "dir", filepath.Join(".bench_build", "perfbench"), "directory for journals and the trace file")
	flag.Parse()
	cfg.trace = trace == 1
	cfg.setups = numSetups
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	// JSON has no infinity: a percentile that fell among failed ops
	// prints as the largest float.
	for k, v := range res.Metrics {
		if math.IsInf(v.Value, 1) {
			res.Metrics[k] = metric{math.MaxFloat64, v.Unit}
		}
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// phase is what one timed phase measured.
type phase struct {
	stats    windowStats
	bytes    [numLinks]int64
	frames   [numLinks]int64
	dials    [numLinks]int64
	mallocs  uint64
	heap     uint64
	gcs      uint32
	gcCPU    float64
	regs     regDelta
	proxy    regDelta
	client   regDelta
	journal  int64
	resident float64 // largest resident image sampled, bytes
	firstErr error   // the first failed op's error, if any
	beyond   int64   // reads more than their Delta behind a committed version
}

func run(cfg config, log io.Writer) (*result, error) {
	setup := lookup(cfg.workload)
	if setup == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	dir, err := filepath.Abs(filepath.Join(cfg.dir, fmt.Sprintf("%s-%d-%d", cfg.workload, cfg.seed, os.Getpid())))
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "perfbench workload=%s seed=%d seconds=%g trace=%v gomaxprocs=%d nproc=%d loadavg=%q journal_fs=%s go=%s\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, runtime.GOMAXPROCS(0), runtime.NumCPU(), loadAvg(), fsType(dir), runtime.Version())
	phaseLen := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		return runTraced(cfg, setup, dir, phaseLen, log)
	}

	var setupS []float64
	var e *env
	var topo topology
	for i := 0; i < max(cfg.setups, 1); i++ {
		if e != nil {
			e.close()
		}
		runtime.GC()
		start := time.Now()
		e, topo, err = boot(setup, false, filepath.Join(dir, strconv.Itoa(i)), cfg.seed)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	ph := measure(e, topo, phaseLen)
	checkErr := topo.check()
	e.close()
	st := ph.stats
	fmt.Fprintf(log, "setup_s runs=%.4f\n", setupS)
	fmt.Fprintf(log, "ops_per_s by window=%.0f\n", st.windowRates)
	fmt.Fprintf(log, "ops=%d writes=%d reads=%d failed=%d failed_op_ratio=%g (ratio) write_p99_ms=%.4f read_p99_ms=%.4f (p99: information only)\n",
		st.ops, st.writes, st.reads, st.failed, ratio(float64(st.failed), float64(st.ops)), st.wP99, st.readP99)
	res := &result{Correct: checkErr == nil && st.failed == 0, Attempted: st.ops, Failed: st.failed, Metrics: map[string]metric{
		"setup_s":           {median(setupS), "s"},
		"ops_per_s":         {st.opsPerS, "1/s"},
		"write_p50_ms":      {st.writeP50, "ms"},
		"write_p90_ms":      {st.writeP90, "ms"},
		"read_p50_ms":       {st.readP50, "ms"},
		"read_p90_ms":       {st.readP90, "ms"},
		"wire_bytes_per_op": {ratio(float64(ph.bytes[0]+ph.bytes[1]+ph.bytes[2]), float64(st.ops)), "bytes"},
		"allocs_per_op":     {ratio(float64(ph.mallocs), float64(st.ops)), "count"},
		"peak_rss_mb":       {peakRSSMB(), "MB"},
	}}
	if ph.firstErr != nil {
		fmt.Fprintf(log, "first failed op: %v\n", ph.firstErr)
	}
	if checkErr != nil {
		fmt.Fprintf(log, "output check FAILED: %v\n", checkErr)
	} else {
		fmt.Fprintln(log, "output check passed")
	}
	return res, nil
}

func lookup(name string) func(*env) (topology, error) {
	for _, w := range workloads {
		if w.name == name {
			return w.setup
		}
	}
	return nil
}

// boot builds one topology; on failure it tears down what it built.
func boot(setup func(*env) (topology, error), traced bool, dir string, seed int64) (*env, topology, error) {
	e, err := newEnv(traced, dir, seed)
	if err != nil {
		return nil, nil, err
	}
	topo, err := setup(e)
	if err != nil {
		e.close()
		return nil, nil, err
	}
	return e, topo, nil
}

// runTraced measures half the time untraced, for the tracing
// overhead, and half traced, for the per-layer figures.
func runTraced(cfg config, setup func(*env) (topology, error), dir string, phaseLen time.Duration, log io.Writer) (*result, error) {
	half := phaseLen / 2
	e, topo, err := boot(setup, false, filepath.Join(dir, "plain"), cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	plain := measure(e, topo, half)
	checkErr := topo.check()
	e.close()

	e, topo, err = boot(setup, true, filepath.Join(dir, "traced"), cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("traced setup: %w", err)
	}
	ph := measure(e, topo, half)
	if err := topo.check(); err != nil && checkErr == nil {
		checkErr = err
	}
	layers := perLayer(e, ph)
	layers["trace.overhead_ratio"] = metric{ratio(ph.stats.opsPerS, plain.stats.opsPerS), "ratio"}
	fmt.Fprintln(log, "layer self time (benchmark-side spans, traced phase):")
	for _, l := range e.rec.selfTimes() {
		fmt.Fprintf(log, "  %-26s n=%-8d self=%10.3f ms  mean=%8.2f us\n", l.name, l.count, ms(l.self), float64(l.self)/1e3/float64(l.count))
	}
	tracePath := filepath.Join(cfg.dir, fmt.Sprintf("trace-%s-%d.json", cfg.workload, cfg.seed))
	if err := e.rec.writeChromeFile(tracePath); err != nil {
		fmt.Fprintln(log, "trace not written:", err)
	} else {
		fmt.Fprintf(log, "chrome trace: %s (%d spans kept, %d dropped)\n", tracePath, len(e.rec.spans), e.rec.dropped)
	}
	e.close()
	if checkErr != nil {
		fmt.Fprintf(log, "output check FAILED: %v\n", checkErr)
	}
	st := ph.stats
	failed := st.failed + plain.stats.failed
	return &result{Correct: checkErr == nil && failed == 0, Attempted: st.ops + plain.stats.ops, Failed: failed, Metrics: layers}, nil
}

// measure runs both clients' closed loops for d and collects the
// phase's counters.
func measure(e *env, topo topology, d time.Duration) phase {
	var ph phase
	if e.traced {
		e.tap.resetSamples()
		e.rec.reset()
	}
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	bytes0, frames0 := e.tap.totals()
	var dials0 [numLinks]int64
	for i := range dials0 {
		dials0[i] = e.tap.dials[i].Load()
	}
	ph.regs.before = snapshotAll(e.serverRegs)
	ph.proxy.before = snapshotAll(e.proxyRegs)
	if e.clientReg != nil {
		ph.client.before = snapshotAll([]*obs.Registry{e.clientReg})
	}
	journal0 := e.journalBytes()
	sc, _ := topo.(staleCounter)
	var beyond0 int64
	if sc != nil {
		beyond0 = sc.beyondDeltaReads()
	}
	gc0, cpu0 := gcCPU()

	var stop atomic.Bool
	var wg sync.WaitGroup
	sampled := make(chan float64, 1)
	if e.traced && e.evicting {
		go func() { sampled <- sampleResident(e, &stop) }()
	} else {
		sampled <- 0
	}
	start := time.Now()
	if s, ok := topo.(loadStopper); ok {
		defer time.AfterFunc(d, s.stopLoad).Stop()
	}
	for _, b := range e.clients {
		b.startPhase(start, d, numWindows)
		wg.Add(1)
		go func(b *benchClient) {
			defer wg.Done()
			for time.Since(start) < d {
				if err := topo.step(b); errors.Is(err, errStopped) {
					return
				}
			}
		}(b)
	}
	wg.Wait()
	stop.Store(true)
	ph.resident = <-sampled

	runtime.ReadMemStats(&ms1)
	bytes1, frames1 := e.tap.totals()
	for i := range ph.bytes {
		ph.bytes[i] = bytes1[i] - bytes0[i]
		ph.frames[i] = frames1[i] - frames0[i]
		ph.dials[i] = e.tap.dials[i].Load() - dials0[i]
	}
	ph.mallocs = ms1.Mallocs - ms0.Mallocs
	ph.heap = ms1.TotalAlloc - ms0.TotalAlloc
	ph.gcs = ms1.NumGC - ms0.NumGC
	gc1, cpu1 := gcCPU()
	ph.gcCPU = ratio(gc1-gc0, cpu1-cpu0)
	ph.regs.after = snapshotAll(e.serverRegs)
	ph.proxy.after = snapshotAll(e.proxyRegs)
	if e.clientReg != nil {
		ph.client.after = snapshotAll([]*obs.Registry{e.clientReg})
	}
	ph.journal = e.journalBytes() - journal0
	if sc != nil {
		ph.beyond = sc.beyondDeltaReads() - beyond0
	}
	var wins [][]window
	for _, b := range e.clients {
		wins = append(wins, b.windows)
	}
	ph.stats = summarize(wins, d)
	for _, b := range e.clients {
		if b.firstErr != nil {
			ph.firstErr = fmt.Errorf("client %d: %w", b.idx, b.firstErr)
			b.firstErr = nil
		}
	}
	e.faultsInPhase = ph.regs.counter("iw_server_segment_faults_total")
	return ph
}

// sampleResident polls the servers' resident-bytes gauge until stop
// and returns the largest reading.
func sampleResident(e *env, stop *atomic.Bool) float64 {
	var peak float64
	for !stop.Load() {
		if v := sumGauges(snapshotAll(e.serverRegs), "iw_server_resident_bytes"); v > peak {
			peak = v
		}
		time.Sleep(20 * time.Millisecond)
	}
	return peak
}

// gcCPU reads the runtime's cumulative GC and total CPU seconds.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		gc = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		total = s[1].Value.Float64()
	}
	return
}

// perLayer turns a traced phase into the per-layer metrics.
func perLayer(e *env, ph phase) map[string]metric {
	l := newLayerAcc()
	for _, b := range e.clients {
		a := b.l
		l.writes += a.writes
		l.reads += a.reads
		l.wlock.merge(a.wlock)
		l.wunlock.merge(a.wunlock)
		l.rlock.merge(a.rlock)
		l.wunlockLocal.merge(a.wunlockLocal)
		l.rlockLocal.merge(a.rlockLocal)
		l.rlocks += a.rlocks
		l.rlocksNoRPC += a.rlocksNoRPC
		l.memWrite += a.memWrite
		l.memRead += a.memRead
		l.twins += a.twins
		l.wordDiff += a.wordDiff
		l.translate += a.translate
		l.units += a.units
		l.diffBytes += a.diffBytes
	}
	ops := float64(ph.stats.ops)
	writes, reads := float64(l.writes), float64(l.reads)
	us := func(d time.Duration, n float64) float64 { return ratio(float64(d)/1e3, n) }
	e.tap.mu.Lock()
	defer e.tap.mu.Unlock()
	clientRTT, peerRTT, upRTT := e.tap.rtt[linkClient], e.tap.rtt[linkPeer], e.tap.rtt[linkUpstream]
	peerDial := e.tap.dial[linkPeer]
	wunlockLocal := l.wunlockLocal.quantile(0.5)
	rlockLocal := l.rlockLocal.quantile(0.5)
	s, p := ph.regs, ph.proxy
	m := map[string]metric{
		"mem.write_us_per_write":      {us(l.memWrite, writes), "us"},
		"mem.twins_per_write":         {ratio(float64(l.twins), writes), "count"},
		"mem.read_us_per_read":        {us(l.memRead, reads), "us"},
		"diff.word_diff_us_per_write": {us(l.wordDiff, writes), "us"},
		"wire.translate_us_per_write": {us(l.translate, writes), "us"},
		"wire.units_per_write":        {ratio(float64(l.units), writes), "count"},
		"wire.diff_bytes_per_write":   {ratio(float64(l.diffBytes), writes), "bytes"},
		"core.wunlock_local_ms_p50":   {wunlockLocal, "ms"},
		"core.rlock_local_ms_p50":     {rlockLocal, "ms"},
		"core.local_latency_share":    {ratio(wunlockLocal+rlockLocal, ph.stats.writeP50+ph.stats.readP50), "ratio"},
		"core.wlock_ms_p50":           {l.wlock.quantile(0.5), "ms"},
		"core.wunlock_ms_p50":         {l.wunlock.quantile(0.5), "ms"},
		"core.rlock_ms_p50":           {l.rlock.quantile(0.5), "ms"},
		"core.rlock_no_rpc_ratio":     {ratio(float64(l.rlocksNoRPC), float64(l.rlocks)), "ratio"},
		"core.retries_per_kop":        {1000 * ratio(ph.client.counter("iw_client_rpc_retries_total"), ops), "count"},
		"transport.client_rtt_ms_p50": {clientRTT.quantile(0.5), "ms"},
		"transport.client_rtt_ms_p90": {clientRTT.quantile(0.9), "ms"},
		"server.rpc_ms_mean":          {1e3 * s.histMean("iw_server_rpc_seconds"), "ms"},
		"server.apply_ms_mean":        {1e3 * s.histMean("iw_server_diff_apply_seconds"), "ms"},
		"server.collect_ms_mean":      {1e3 * s.histMean("iw_server_diff_collect_seconds"), "ms"},
		"server.lock_wait_ms_mean":    {1e3 * s.histMean("iw_server_lock_wait_seconds"), "ms"},
		"server.releases_per_group_commit": {ratio(s.counter("iw_server_group_commit_releases_total"),
			s.counter("iw_server_group_commits_total")), "count"},
		"server.diff_cache_hit_ratio": {ratio(s.gauge("iw_server_segment_cache_hits"),
			s.histCount("iw_server_diff_collect_seconds")), "ratio"},
		"server.notifications_per_write": {ratio(s.counter("iw_server_notifications_total"), writes), "count"},
		"journal.append_ms_mean":         {1e3 * s.histMean("iw_server_journal_append_seconds"), "ms"},
		"journal.appends_per_write":      {ratio(s.counter("iw_server_journal_appends_total"), writes), "count"},
		"journal.bytes_per_write":        {ratio(float64(ph.journal), writes), "bytes"},
		"journal.compactions_per_kop":    {1000 * ratio(s.counter("iw_server_journal_compactions_total"), ops), "count"},
		"cluster.peer_rtt_ms_p50":        {peerRTT.quantile(0.5), "ms"},
		"cluster.peer_dial_ms_p50":       {peerDial.quantile(0.5), "ms"},
		"cluster.peer_dials_per_write":   {ratio(float64(ph.dials[linkPeer]), writes), "count"},
		"proxy.upstream_rtt_ms_p50":      {upRTT.quantile(0.5), "ms"},
		"proxy.pulls_per_kread":          {1000 * ratio(p.counter("iw_proxy_pulls_total"), reads), "count"},
		"proxy.sync_pull_ratio": {ratio(p.counter("iw_proxy_reads_sync_pull_total"),
			p.counter("iw_proxy_reads_total")), "ratio"},
		"coherence.beyond_delta_per_kread": {1000 * ratio(float64(ph.beyond), reads), "count"},
		"evict.faults_per_op":              {ratio(s.counter("iw_server_segment_faults_total"), ops), "count"},
		"evict.fault_ms_mean":              {1e3 * s.histMean("iw_server_segment_fault_seconds"), "ms"},
		"evict.evictions_per_kop":          {1000 * ratio(s.counter("iw_server_segment_evictions_total"), ops), "count"},
		"evict.resident_mb_max":            {ph.resident / (1 << 20), "MB"},
		"runtime.gc_cycles_per_kop":        {1000 * ratio(float64(ph.gcs), ops), "count"},
		"runtime.gc_cpu_fraction":          {ph.gcCPU, "ratio"},
		"runtime.heap_bytes_per_op":        {ratio(float64(ph.heap), ops), "bytes"},
	}
	for c := linkClass(0); c < numLinks; c++ {
		n := linkNames[c]
		m["transport.bytes_per_op."+n] = metric{ratio(float64(ph.bytes[c]), ops), "bytes"}
		m["transport.frames_per_op."+n] = metric{ratio(float64(ph.frames[c]), ops), "count"}
		m["transport.dials_per_kop."+n] = metric{1000 * ratio(float64(ph.dials[c]), ops), "count"}
	}
	return m
}

// loadAvg is the first three fields of /proc/loadavg.
func loadAvg() string {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "unknown"
	}
	f := strings.Fields(string(b))
	if len(f) < 3 {
		return "unknown"
	}
	return strings.Join(f[:3], " ")
}

// fsType names the filesystem holding dir, where the journals live.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{0x01021994: "tmpfs", 0xEF53: "ext4", 0x794c7630: "overlayfs", 0x58465342: "xfs", 0x9123683E: "btrfs"}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// peakRSSMB is the process's high-water resident set (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	return math.NaN()
}
