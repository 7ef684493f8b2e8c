package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// span is one recorded layer call of the traced run.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for an operation's root span
	Op     int    `json:"op"`     // input index of the operation
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// rootSpan names every operation's root span; its self time is the part
// of the operation that no layer span covers.
const rootSpan = "op"

// tracer keeps the traced run's spans in memory; they are written out
// once the run ends.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
	op    int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// beginOp opens the root span of operation i.
func (t *tracer) beginOp(i int) {
	t.op = i
	t.begin(rootSpan)
}

// begin opens a span as a child of the innermost open one. A nil tracer
// records nothing.
func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.op, Name: name, Start: int64(time.Since(t.t0))})
	t.stack = append(t.stack, id)
}

// end closes the innermost open span and returns its duration.
func (t *tracer) end() time.Duration {
	if t == nil {
		return 0
	}
	n := len(t.stack) - 1
	s := &t.spans[t.stack[n]]
	t.stack = t.stack[:n]
	s.End = int64(time.Since(t.t0))
	return time.Duration(s.End - s.Start)
}

// durations returns the durations of every closed span with the given
// name, in recording order.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

// selfTimes returns each span name's total self time in seconds: span
// durations minus the part of each interval that child spans cover.
func selfTimes(spans []span) map[string]float64 {
	children := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Name] += float64(s.End-s.Start-covered(children[s.ID])) / 1e9
	}
	return out
}

// covered returns the length of the union of the intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total int64
	for i := 0; i < len(iv); {
		lo, hi := iv[i][0], iv[i][1]
		for i++; i < len(iv) && iv[i][0] <= hi; i++ {
			hi = max(hi, iv[i][1])
		}
		total += hi - lo
	}
	return total
}

// spanMetrics turns the tracer's spans into self-time metrics (mean ms
// per operation, one per span name) and trace.unattributed_share.
func spanMetrics(t *tracer, names []string) map[string]metric {
	self := selfTimes(t.spans)
	ops := t.durations(rootSpan)
	total := 0.0
	for _, d := range ops {
		total += d
	}
	m := map[string]metric{}
	for _, name := range names {
		m["self_ms."+name] = metric{self[name] * 1e3 / float64(len(ops)), "ms"}
	}
	m["trace.unattributed_share"] = metric{self[rootSpan] / total, "ratio"}
	return m
}

// writeSpans dumps the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// repoModules are the layers: this repository's modules as named under
// internal/, with "mlckpt" for the root facade.
var repoModules = []string{
	"mlckpt", "core", "model", "numopt", "speedup", "overhead",
	"sim", "stats", "failure", "sweep", "experiments",
	"mpisim", "eventq", "heat", "enc", "fti", "erasure", "storage", "inject",
	"obs",
}

// cpuModules are the buckets the CPU profile is split into: the layers,
// "other" for a repository package outside them, "runtime" for samples
// with no repository frame and "bench" for samples with only benchmark
// frames.
var cpuModules = append(slices.Clone(repoModules), "other", "runtime", "bench")

// frameModule classifies one profile frame: a repository module name, or
// "bench" for the benchmark's own code, or "" for anything else.
func frameModule(fn string) string {
	fn = strings.TrimSuffix(fn, " (inline)")
	switch {
	case strings.HasPrefix(fn, "mlckpt/internal/"):
		rest := strings.TrimPrefix(fn, "mlckpt/internal/")
		mod := rest[:strings.IndexAny(rest, "./")]
		if slices.Contains(repoModules, mod) {
			return mod
		}
		return "other"
	case strings.HasPrefix(fn, "mlckpt."):
		return "mlckpt"
	case strings.HasPrefix(fn, "main."):
		return "bench"
	}
	return ""
}

// sampleModule attributes one stack (leaf first) to the innermost
// repository frame, else to the benchmark, else to the runtime.
func sampleModule(frames []string) string {
	bench := false
	for _, f := range frames {
		switch m := frameModule(f); m {
		case "":
		case "bench":
			bench = true
		default:
			return m
		}
	}
	if bench {
		return "bench"
	}
	return "runtime"
}

// parseTraces reads `go tool pprof -traces -sample_index=samples` output
// into sample counts per module.
func parseTraces(text string) (map[string]int, int, error) {
	counts := map[string]int{}
	total := 0
	var frames []string
	n := -1
	flush := func() {
		if n > 0 {
			counts[sampleModule(frames)] += n
			total += n
		}
		frames, n = frames[:0], -1
	}
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	inBlock := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inBlock = true
			continue
		}
		if !inBlock || strings.TrimSpace(line) == "" {
			continue
		}
		if n < 0 {
			f := strings.Fields(line)
			if len(f) < 2 {
				return nil, 0, fmt.Errorf("pprof traces: bad sample line %q", line)
			}
			v, err := strconv.Atoi(f[0])
			if err != nil {
				return nil, 0, fmt.Errorf("pprof traces: bad sample count in %q", line)
			}
			n = v
			frames = append(frames, strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(line), f[0])))
			continue
		}
		frames = append(frames, strings.TrimSpace(line))
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	return counts, total, nil
}

// profileCPU runs fn under the CPU profiler, writing the profile to path.
func profileCPU(path string, fn func()) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	fn()
	pprof.StopCPUProfile()
	return f.Close()
}

// cpuMetrics reads the profile through the toolchain's own text output,
// leaving out samples labelled untimed, and returns cpu.<module> shares
// plus cpu.samples.
func cpuMetrics(path string) (map[string]metric, error) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		return nil, err
	}
	var stderr bytes.Buffer
	cmd := exec.Command(goBin, "tool", "pprof", "-traces", "-sample_index=samples",
		"-tagignore="+untimedLabel[0]+"="+untimedLabel[1], path)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, stderr.String())
	}
	counts, total, err := parseTraces(string(out))
	if err != nil {
		return nil, err
	}
	if total == 0 {
		return nil, fmt.Errorf("cpu profile %s has no samples", path)
	}
	m := map[string]metric{"cpu.samples": {float64(total), "count"}}
	for _, mod := range cpuModules {
		m["cpu."+mod] = metric{float64(counts[mod]) / float64(total), "share"}
	}
	return m, nil
}

// tracedRun is the --trace 1 run. The first half of the budget runs the
// untraced operation under the CPU profiler; the second half runs the
// traced operation (spans around every layer call, obs collectors
// attached) on a disjoint input range starting at a fixed index, so its
// exact counts depend on the seed alone. Probes follow, untimed by the
// budget.
func tracedRun(w workload, e env, seed uint64, budget time.Duration) (result, error) {
	inst, _, checkErr, err := setupMedian(w, e, seed)
	if err != nil {
		return result{}, err
	}
	if err := os.MkdirAll(e.out, 0o755); err != nil {
		return result{}, err
	}
	prefix := filepath.Join(e.out, fmt.Sprintf("%s-%d", w.name, seed))
	var a loopStats
	if err := profileCPU(prefix+".pprof", func() {
		a = measure(inst, w.batch, 0, budget/2, 0, inst.run)
	}); err != nil {
		return result{}, err
	}
	tr := newTracer()
	b := measure(inst, w.batch, tracedFirst, budget/2, w.exactOps, func(slot int) error {
		return inst.traced(slot, tr)
	})
	for _, c := range []error{a.checkErr, b.checkErr} {
		if c != nil && checkErr == nil {
			checkErr = c
		}
	}
	if err := writeSpans(prefix+".spans.jsonl", tr.spans); err != nil {
		return result{}, err
	}
	m, err := inst.layers(tr)
	if err != nil {
		return result{}, err
	}
	cpu, err := cpuMetrics(prefix + ".pprof")
	if err != nil {
		return result{}, err
	}
	for k, v := range cpu {
		m[k] = v
	}
	traced := tr.durations(w.opSpan)
	sum := 0.0
	for _, d := range traced {
		sum += d
	}
	untraced := float64(len(a.lat)) / a.busy.Seconds()
	m["trace.overhead_share"] = metric{1 - float64(len(traced))/sum/untraced, "ratio"}
	if checkErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", checkErr)
	}
	for _, nu := range perLayer() {
		if _, ok := m[nu[0]]; !ok {
			// A metric of another workload's layers, which this workload
			// does not exercise.
			m[nu[0]] = metric{0, nu[1]}
		}
	}
	return result{
		Correct:   checkErr == nil,
		Attempted: a.attempted + b.attempted,
		Failed:    a.failed + b.failed,
		Metrics:   m,
	}, nil
}

// tracedFirst is the first input index of the traced phase.
const tracedFirst = 1 << 20
