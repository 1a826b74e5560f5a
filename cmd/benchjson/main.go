// Command benchjson converts `go test -bench` text output (read from stdin)
// into a stable JSON document, so CI can record benchmark baselines as
// artifacts and diff them across commits:
//
//	go test -bench=Telemetry -benchmem ./internal/telemetry | benchjson > BENCH_telemetry.json
//
// Standard metrics (ns/op, B/op, allocs/op) get dedicated fields; any custom
// b.ReportMetric unit lands in "extra". Each row records the package it ran
// in (the "pkg:" header above it), so a multi-package run stays attributable.
//
// With -compare BASELINE.json the command additionally enforces a regression
// gate: after emitting the JSON it exits non-zero when any benchmark present
// in both documents regressed by more than -tolerance (default 0.30) in
// ns/op or in allocs/op (zero-alloc baselines are exempt from the allocation
// gate — there is no ratio to grow). Benchmarks new to either side are
// reported but never fail the gate — renames and additions must not break
// CI — except when NOTHING overlaps the baseline, which fails deliberately:
// a gate with zero comparisons would pass vacuously forever. Custom units
// (placements/s, skips/simsec, ...) get an informational delta column but
// never gate: throughput numbers are machine-dependent, so the wall-clock
// ns/op ratio is the enforced signal. -summary FILE appends the comparison
// as a markdown table (append mode, so pointing it at $GITHUB_STEP_SUMMARY
// surfaces the deltas on the PR).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	Name        string             `json:"name"`
	Pkg         string             `json:"pkg,omitempty"`
	Procs       int                `json:"procs,omitempty"`
	Runs        int64              `json:"runs"`
	NsPerOp     float64            `json:"nsPerOp"`
	BytesPerOp  *int64             `json:"bytesPerOp,omitempty"`
	AllocsPerOp *int64             `json:"allocsPerOp,omitempty"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

// Document is the emitted JSON root.
type Document struct {
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	compare := flag.String("compare", "", "baseline JSON file; exit non-zero on ns/op or allocs/op regression beyond -tolerance")
	tolerance := flag.Float64("tolerance", 0.30, "allowed fractional ns/op / allocs/op regression vs the baseline")
	summary := flag.String("summary", "", "append the comparison as a markdown table to this file (e.g. $GITHUB_STEP_SUMMARY)")
	flag.Parse()

	doc := Document{Benchmarks: []Benchmark{}}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	pkg := ""
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos: "):
			doc.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			doc.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "cpu: "):
			doc.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "Benchmark"):
			if b, ok := parseLine(line); ok {
				b.Pkg = pkg
				doc.Benchmarks = append(doc.Benchmarks, b)
			}
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if *compare != "" {
		if !gate(doc, *compare, *tolerance, *summary) {
			os.Exit(1)
		}
	}
}

// allocs dereferences an allocs/op field (-1 when the benchmark was run
// without -benchmem).
func allocs(b Benchmark) int64 {
	if b.AllocsPerOp == nil {
		return -1
	}
	return *b.AllocsPerOp
}

// gate compares doc against the baseline file and reports the outcome; false
// means at least one shared benchmark regressed beyond tolerance in ns/op or
// allocs/op. A non-empty summaryPath additionally receives the comparison as
// an appended markdown table.
func gate(doc Document, baselinePath string, tolerance float64, summaryPath string) bool {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: read baseline:", err)
		return false
	}
	var base Document
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: parse baseline:", err)
		return false
	}
	baseline := make(map[string]Benchmark, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		baseline[b.Name] = b
	}
	ok := true
	compared := 0
	var md strings.Builder
	md.WriteString("### Benchmark comparison vs " + baselinePath + "\n\n")
	md.WriteString("| benchmark | ns/op (base → new) | Δ ns/op | allocs/op (base → new) | Δ allocs | extra | status |\n")
	md.WriteString("|---|---|---|---|---|---|---|\n")
	for _, cur := range doc.Benchmarks {
		ref, found := baseline[cur.Name]
		if !found {
			fmt.Fprintf(os.Stderr, "benchjson: %s: no baseline (new benchmark, not gated)\n", cur.Name)
			fmt.Fprintf(&md, "| %s | — → %.1f | new | — → %s | new | %s | not gated |\n",
				cur.Name, cur.NsPerOp, allocsCell(allocs(cur)), extraDeltas(Benchmark{}, cur))
			continue
		}
		compared++
		status := "ok"
		nsDelta := "—"
		if ref.NsPerOp > 0 {
			ratio := cur.NsPerOp / ref.NsPerOp
			nsDelta = fmt.Sprintf("%+.1f%%", (ratio-1)*100)
			if ratio > 1+tolerance {
				status = "REGRESSION (ns/op)"
				ok = false
			}
		}
		// Allocations gate with the same tolerance. Zero-alloc baselines are
		// skipped (no ratio to grow); any new allocation there still shows in
		// the table.
		allocDelta := "—"
		if refA, curA := allocs(ref), allocs(cur); refA > 0 && curA >= 0 {
			ratio := float64(curA) / float64(refA)
			allocDelta = fmt.Sprintf("%+.1f%%", (ratio-1)*100)
			if ratio > 1+tolerance {
				status = "REGRESSION (allocs/op)"
				ok = false
			}
		}
		extras := extraDeltas(ref, cur)
		fmt.Fprintf(os.Stderr, "benchjson: %s: %.1f -> %.1f ns/op (%s), %s -> %s allocs/op (%s), extra: %s %s\n",
			ref.Name, ref.NsPerOp, cur.NsPerOp, nsDelta,
			allocsCell(allocs(ref)), allocsCell(allocs(cur)), allocDelta, extras, status)
		fmt.Fprintf(&md, "| %s | %.1f → %.1f | %s | %s → %s | %s | %s | %s |\n",
			cur.Name, ref.NsPerOp, cur.NsPerOp, nsDelta,
			allocsCell(allocs(ref)), allocsCell(allocs(cur)), allocDelta, extras, status)
	}
	if compared == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmarks shared with the baseline — gate cannot pass vacuously")
		return false
	}
	if !ok {
		fmt.Fprintf(os.Stderr, "benchjson: regression beyond %.0f%% tolerance vs %s\n", tolerance*100, baselinePath)
		fmt.Fprintf(&md, "\n**Regression beyond %.0f%% tolerance.**\n", tolerance*100)
	}
	if summaryPath != "" {
		f, err := os.OpenFile(summaryPath, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson: open summary:", err)
			return false
		}
		if _, err := f.WriteString(md.String()); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson: write summary:", err)
			f.Close()
			return false
		}
		f.Close()
	}
	return ok
}

// extraDeltas renders the custom-unit metrics (b.ReportMetric: items/s,
// placements/s, skips/simsec, ...) as "unit base → new (Δ%)" pairs. Purely
// informational — throughput units are machine-dependent, so they never
// gate; the enforced signal stays ns/op and allocs/op. A zero-value ref
// (new benchmark) renders the current values without deltas.
func extraDeltas(ref, cur Benchmark) string {
	if len(cur.Extra) == 0 {
		return "—"
	}
	units := make([]string, 0, len(cur.Extra))
	for u := range cur.Extra {
		units = append(units, u)
	}
	sort.Strings(units)
	parts := make([]string, 0, len(units))
	for _, u := range units {
		cv := cur.Extra[u]
		rv, shared := ref.Extra[u]
		switch {
		case !shared:
			parts = append(parts, fmt.Sprintf("%s %.1f", u, cv))
		case rv != 0:
			parts = append(parts, fmt.Sprintf("%s %.1f → %.1f (%+.1f%%)", u, rv, cv, (cv/rv-1)*100))
		default:
			parts = append(parts, fmt.Sprintf("%s %.1f → %.1f", u, rv, cv))
		}
	}
	return strings.Join(parts, "; ")
}

// allocsCell renders an allocs/op value for output ("—" when unrecorded).
func allocsCell(v int64) string {
	if v < 0 {
		return "—"
	}
	return strconv.FormatInt(v, 10)
}

// parseLine parses one "BenchmarkFoo-8  N  V unit  V unit ..." result line.
func parseLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Benchmark{}, false
	}
	b := Benchmark{Name: fields[0]}
	if i := strings.LastIndex(b.Name, "-"); i > 0 {
		if procs, err := strconv.Atoi(b.Name[i+1:]); err == nil {
			b.Name, b.Procs = b.Name[:i], procs
		}
	}
	runs, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b.Runs = runs
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			b.NsPerOp = v
		case "B/op":
			n := int64(v)
			b.BytesPerOp = &n
		case "allocs/op":
			n := int64(v)
			b.AllocsPerOp = &n
		default:
			if b.Extra == nil {
				b.Extra = make(map[string]float64)
			}
			b.Extra[unit] = v
		}
	}
	return b, true
}
