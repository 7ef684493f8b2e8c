// Command obstool inspects the observability artifacts written by the
// -metrics-out and -trace-out flags of cmd/experiments and cmd/ckptopt.
// It has four modes:
//
//	obstool validate [-metrics FILE] [-trace FILE]
//	    Validate artifacts against the exporter schemas (internal/obs).
//
//	obstool diff -a BASE.json -b CURRENT.json [-threshold PCT]
//	    Compare the deterministic sections of two metrics snapshots
//	    (volatile sections and capture stamps are stripped first). Exit 1
//	    when any shared metric drifts by more than -threshold percent
//	    (default 0: the sections must be identical — the determinism
//	    contract across worker counts and engines). Added or removed
//	    metrics are reported but only fail at -threshold 0.
//
//	obstool summarize -trace FILE
//	    Per-track span totals, plus a communication/computation split for
//	    mpisim rank timelines (collective spans are totally ordered, so
//	    comm = Σ collective durations and compute = run wall − comm).
//
//	obstool attrib -trace FILE [-track PREFIX]
//	    Waste-attribute every run track matching PREFIX (default
//	    "attrib/"; sim and fault-injected real-run tracks work too when
//	    recorded without an event budget). Prints each track's exact
//	    wall-clock decomposition; exit 1 if any selected track fails or
//	    none matches.
//
// All modes exit 0 on success, 1 on a validation/diff/attribution
// failure, and 2 on usage errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"

	"mlckpt/internal/obs"
	"mlckpt/internal/obs/attrib"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func usage(stderr io.Writer) int {
	fmt.Fprintln(stderr, "usage: obstool <validate|diff|summarize|attrib> [flags]")
	return 2
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		return usage(stderr)
	}
	cmd, rest := args[0], args[1:]
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "obstool %s: "+format+"\n", append([]any{cmd}, a...)...)
		return 1
	}
	fs := flag.NewFlagSet("obstool "+cmd, flag.ContinueOnError)
	fs.SetOutput(stderr)
	switch cmd {
	case "validate":
		metricsPath := fs.String("metrics", "", "metrics snapshot JSON to validate")
		tracePath := fs.String("trace", "", "Chrome trace-event JSON to validate")
		if err := fs.Parse(rest); err != nil {
			return 2
		}
		if *metricsPath == "" && *tracePath == "" {
			fs.Usage()
			return 2
		}
		if *metricsPath != "" {
			data, err := os.ReadFile(*metricsPath)
			if err != nil {
				return fail("%v", err)
			}
			snap, err := obs.ValidateMetricsJSON(data)
			if err != nil {
				return fail("%s: %v", *metricsPath, err)
			}
			fmt.Fprintf(stdout, "%s: ok (%d metrics, %d volatile)\n", *metricsPath, len(snap.Metrics), len(snap.Volatile))
		}
		if *tracePath != "" {
			data, err := os.ReadFile(*tracePath)
			if err != nil {
				return fail("%v", err)
			}
			tr, err := obs.DecodeTraceJSON(data)
			if err != nil {
				return fail("%s: %v", *tracePath, err)
			}
			fmt.Fprintf(stdout, "%s: ok (%d trace events)\n", *tracePath, tr.Len())
		}
		return 0

	case "diff":
		aPath := fs.String("a", "", "baseline metrics snapshot")
		bPath := fs.String("b", "", "current metrics snapshot")
		threshold := fs.Float64("threshold", 0, "allowed drift percent per metric (0 = byte-exact determinism)")
		if err := fs.Parse(rest); err != nil {
			return 2
		}
		if *aPath == "" || *bPath == "" {
			fs.Usage()
			return 2
		}
		drifts, err := diffMetrics(stdout, *aPath, *bPath, *threshold)
		if err != nil {
			return fail("%v", err)
		}
		if drifts > 0 {
			return fail("%d metrics beyond %.3g%% drift", drifts, *threshold)
		}
		return 0

	case "summarize":
		tracePath := fs.String("trace", "", "Chrome trace-event JSON to summarize")
		if err := fs.Parse(rest); err != nil {
			return 2
		}
		if *tracePath == "" {
			fs.Usage()
			return 2
		}
		data, err := os.ReadFile(*tracePath)
		if err != nil {
			return fail("%v", err)
		}
		tr, err := obs.DecodeTraceJSON(data)
		if err != nil {
			return fail("%s: %v", *tracePath, err)
		}
		summarize(stdout, tr)
		return 0

	case "attrib":
		tracePath := fs.String("trace", "", "Chrome trace-event JSON holding run tracks")
		trackPrefix := fs.String("track", "attrib/", "attribute tracks with this prefix")
		if err := fs.Parse(rest); err != nil {
			return 2
		}
		if *tracePath == "" {
			fs.Usage()
			return 2
		}
		data, err := os.ReadFile(*tracePath)
		if err != nil {
			return fail("%v", err)
		}
		tr, err := obs.DecodeTraceJSON(data)
		if err != nil {
			return fail("%s: %v", *tracePath, err)
		}
		var tracks []string
		for _, track := range tr.Tracks() {
			if strings.HasPrefix(track, *trackPrefix) {
				tracks = append(tracks, track)
			}
		}
		sort.Strings(tracks)
		if len(tracks) == 0 {
			return fail("%s: no tracks with prefix %q (have %v)", *tracePath, *trackPrefix, tr.Tracks())
		}
		bad := 0
		for _, track := range tracks {
			rep, err := attrib.FromTrace(tr, track)
			if err != nil {
				bad++
				fmt.Fprintf(stderr, "obstool attrib: %s: %v\n", track, err)
				continue
			}
			fmt.Fprint(stdout, rep.Render())
		}
		fmt.Fprintf(stdout, "%d of %d tracks attributed exactly\n", len(tracks)-bad, len(tracks))
		if bad > 0 {
			return 1
		}
		return 0
	}
	return usage(stderr)
}

// diffMetrics compares the deterministic sections of two snapshots and
// returns the number of metrics drifting beyond thresholdPct.
func diffMetrics(w io.Writer, aPath, bPath string, thresholdPct float64) (int, error) {
	load := func(path string) (map[string]obs.Metric, []string, error) {
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, nil, err
		}
		snap, err := obs.ValidateMetricsJSON(raw)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", path, err)
		}
		snap.StripVolatile()
		m := make(map[string]obs.Metric, len(snap.Metrics))
		names := make([]string, 0, len(snap.Metrics))
		for _, metric := range snap.Metrics {
			m[metric.Name] = metric
			names = append(names, metric.Name)
		}
		return m, names, nil
	}
	a, aNames, err := load(aPath)
	if err != nil {
		return 0, err
	}
	b, bNames, err := load(bPath)
	if err != nil {
		return 0, err
	}

	// A metric's scalar view: counter value, gauge, or histogram sum.
	scalar := func(m obs.Metric) float64 {
		switch m.Type {
		case "counter":
			return float64(m.Value)
		case "gauge":
			return m.Gauge
		default:
			return m.Sum()
		}
	}
	drifts := 0
	for _, name := range aNames {
		bm, ok := b[name]
		if !ok {
			fmt.Fprintf(w, "- %-40s only in %s\n", name, aPath)
			if thresholdPct == 0 {
				drifts++
			}
			continue
		}
		am := a[name]
		av, bv := scalar(am), scalar(bm)
		//lint:allow floateq the diff's default contract IS byte-exact determinism; any nonzero drift must be reported, however small
		if av == bv && am.Count == bm.Count {
			continue
		}
		pct := math.Inf(1)
		if av != 0 {
			pct = 100 * math.Abs(bv-av) / math.Abs(av)
		}
		mark := "  "
		if pct > thresholdPct {
			mark = "!!"
			drifts++
		}
		fmt.Fprintf(w, "%s %-40s %14.6g -> %14.6g  (%+.3g%%)\n", mark, name, av, bv, pct)
	}
	for _, name := range bNames {
		if _, ok := a[name]; !ok {
			fmt.Fprintf(w, "+ %-40s only in %s\n", name, bPath)
			if thresholdPct == 0 {
				drifts++
			}
		}
	}
	fmt.Fprintf(w, "%d + %d metrics compared, %d beyond threshold\n", len(aNames), len(bNames), drifts)
	return drifts, nil
}

// summarize prints per-track span statistics. Tracks carrying an mpisim
// "run" span additionally get a comm/compute split: collectives on a rank
// timeline never overlap (they are globally ordered), so their total
// duration is the track's communication share of the run's wall clock.
func summarize(w io.Writer, tr *obs.Trace) {
	collective := map[string]bool{
		"barrier": true, "bcast": true, "allreduce": true,
		"gather": true, "reduce": true, "scatter": true,
	}
	for _, track := range tr.Tracks() {
		evs := tr.Events(track)
		type agg struct {
			count int
			dur   float64
		}
		byName := map[string]*agg{}
		var names []string
		spans, instants := 0, 0
		wall, comm := 0.0, 0.0
		hasRun := false
		for _, ev := range evs {
			if !ev.Span() {
				instants++
				continue
			}
			spans++
			a, ok := byName[ev.Name]
			if !ok {
				a = &agg{}
				byName[ev.Name] = a
				names = append(names, ev.Name)
			}
			a.count++
			a.dur += ev.Dur
			if ev.Name == "run" {
				hasRun = true
				wall = ev.Dur
			}
			if collective[ev.Name] {
				comm += ev.Dur
			}
		}
		fmt.Fprintf(w, "%s: %d spans, %d instants\n", track, spans, instants)
		sort.Strings(names)
		for _, name := range names {
			a := byName[name]
			fmt.Fprintf(w, "  %-22s %6d x  %14.6f s\n", name, a.count, a.dur)
		}
		if hasRun && wall > 0 {
			fmt.Fprintf(w, "  comm/compute: %.6f s / %.6f s (%.2f%% communication)\n",
				comm, wall-comm, 100*comm/wall)
		}
	}
}
