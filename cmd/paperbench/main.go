// Command paperbench regenerates every table and figure of the paper's
// evaluation section on the simulator and prints them as text tables.
//
// Usage:
//
//	paperbench [-scale small|default|paper] [-only table3,fig2,...] [-apps fir,depth] [-j N]
//	           [-job-timeout 2m] [-artifacts DIR] [-resume]
//	           [-store DIR] [-store-max-bytes N] [-txn-trace FILE.jsonl]
//	           [-cpuprofile cpu.pprof] [-blockprofile block.pprof]
//	           [-http :9090] [-http-linger 60s] [-flightrec 256]
//
// The default scale runs the same workload shapes as the paper at
// reduced dataset sizes; -scale paper uses paper-sized inputs (slow).
//
// Simulations run -j at a time (default: GOMAXPROCS) on a deduplicating
// worker pool. Every simulation is an isolated deterministic engine and
// results are collected in a fixed order, so table and figure output is
// byte-identical at any -j; only the stderr progress interleaving varies.
//
// Every job runs through bench.Runner, as memsim's one job does, and
// bench.CLI registers, validates and opens the flags the two commands
// share: -scale, -store, -store-max-bytes, -http, -http-linger and
// -flightrec mean the same in both.
//
// A failing simulation does not kill the campaign: its cells render as
// ERR, the figure gains a "N ok / M failed" summary line, and the
// manifest records the typed failure with the engine's state dump.
// Each job runs once. Simulations are deterministic, so every failure
// but a -job-timeout watchdog abort recurs on a re-run; to re-run timed
// out jobs, resume the campaign (-artifacts DIR -resume).
//
// -store DIR attaches a persistent, crash-safe result store shared
// across campaigns: each job probes it before simulating and a verified
// hit (matching config hash, workload, dataset -scale and the SHA-256 of
// this executable) is recalled instead of re-run, while fresh results
// are written back one CRC32C-checksummed file each. A corrupt record
// is deleted and re-simulated — never served; results stored at one
// -scale, or by another build, never answer this campaign. One process
// owns a store directory at a time (a concurrent open fails with "in
// use"). Figure output is byte-identical with or without the store.
//
// -artifacts DIR without -store stores results in DIR/store, which
// a campaign starts empty (as it does manifest.jsonl). -resume keeps
// DIR/store instead, so only jobs missing from it (never run, failed,
// or lost to a crash) simulate again; it cannot be combined with -store.
// manifest.jsonl is write-only: it lists the simulations this
// invocation ran, each record fsynced as it is written, and is never
// read back.
//
// -http serves live campaign telemetry while the figures run: GET
// /metrics (Prometheus text), GET /progress (JSON span table with
// per-figure completion and a rate-based ETA), and net/http/pprof under
// /debug/pprof. -http-linger keeps the endpoint up after the campaign
// finishes (until the duration passes or /quit is hit) so scrapers can
// collect the final state. When stderr is a terminal, a single in-place
// status line summarizes the pool; pipes get the plain progress lines,
// byte-identical to previous releases. Every fresh simulation also arms
// an engine flight recorder of -flightrec events (default 256, 0 = off),
// so failure records carry the scheduler-event tail that led to the
// deadlock or abort.
//
// Exit codes (shared with memsim): 0 success, 1 runtime/IO failure,
// 2 flag or configuration validation error, 3 grid completed partially
// (at least one cell failed).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/txntrace"
	"repro/internal/workload"
)

// gitDescribe labels the manifest header with the tree the artifacts
// were produced from; "unknown" when git or the repository is
// unavailable (e.g. a released binary run outside a checkout). It is a
// label only: result-store records are keyed by the executable.
func gitDescribe() string {
	out, err := exec.Command("git", "describe", "--always", "--dirty").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// manifestRun is one simulation's record in manifest.jsonl: the bench
// record (full config, report, host duration) plus the headline
// numbers a reader wants without digging into the report.
type manifestRun struct {
	Kind string `json:"kind"` // "run"
	bench.Record
	WallFS       uint64  `json:"wall_fs"`
	FastPathRate float64 `json:"fastpath_rate"`
	InlineRate   float64 `json:"inline_rate"`
}

// manifestWriter serializes concurrent OnRecord callbacks into one
// append-only JSONL stream. The header and every record are fsynced as
// they are written, as the result store does for each of its records,
// so a powerloss mid-campaign loses at most the record being written.
// Write errors surface once (the first), then are suppressed — a dead
// disk would otherwise print one error per simulation.
type manifestWriter struct {
	mu     sync.Mutex
	f      *os.File
	enc    *json.Encoder
	stderr io.Writer
	failed bool
}

// newManifestWriter truncates dir/manifest.jsonl and writes this
// invocation's header.
func newManifestWriter(dir string, scale string, stderr io.Writer) (*manifestWriter, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(filepath.Join(dir, "manifest.jsonl"))
	if err != nil {
		return nil, err
	}
	m := &manifestWriter{f: f, enc: json.NewEncoder(f), stderr: stderr}
	header := struct {
		Kind    string `json:"kind"` // "header"
		Git     string `json:"git"`
		Scale   string `json:"scale"`
		Started string `json:"started"`
	}{"header", gitDescribe(), scale, time.Now().UTC().Format(time.RFC3339)}
	if err := m.enc.Encode(header); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	return m, nil
}

// record is the bench.Runner.OnRecord callback.
func (m *manifestWriter) record(rec bench.Record) {
	run := manifestRun{Kind: "run", Record: rec}
	if rec.Report != nil {
		run.WallFS = uint64(rec.Report.Wall)
		run.FastPathRate = rec.Report.Engine.FastPathRate()
		run.InlineRate = rec.Report.Engine.InlineRate()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	err := m.enc.Encode(run)
	if err == nil {
		err = m.f.Sync()
	}
	if err != nil && !m.failed {
		m.failed = true
		fmt.Fprintf(m.stderr, "paperbench: manifest: write failed (suppressing further errors): %v\n", err)
	}
}

// close syncs and closes the manifest; a write failure anywhere in the
// campaign surfaces here too, so the exit code reflects a bad manifest
// even when the one-time warning scrolled away.
func (m *manifestWriter) close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	serr := m.f.Sync()
	cerr := m.f.Close()
	switch {
	case m.failed:
		return errors.New("one or more records failed to write (see first error above)")
	case serr != nil:
		return serr
	default:
		return cerr
	}
}

// txnSink gathers each fresh simulation's transaction tracer from the
// OnRecord stream and writes one deterministic JSONL file at campaign
// end: per run a header line (workload, config, tail_exemplars digest)
// followed by that run's retained transaction trees. Runs are sorted by
// (workload, config) so the file is byte-identical at any -j; store
// hits carry no tracer and are skipped.
type txnSink struct {
	mu   sync.Mutex
	recs []bench.Record
}

func (s *txnSink) record(rec bench.Record) {
	if rec.Txn == nil {
		return
	}
	s.mu.Lock()
	s.recs = append(s.recs, rec)
	s.mu.Unlock()
}

func (s *txnSink) write(path string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	type keyed struct {
		key string
		rec bench.Record
	}
	ks := make([]keyed, 0, len(s.recs))
	for _, rec := range s.recs {
		cj, err := json.Marshal(rec.Cfg)
		if err != nil {
			return err
		}
		ks = append(ks, keyed{rec.Name + "\x00" + string(cj), rec})
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i].key < ks[j].key })
	return bench.WriteFile(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		for _, k := range ks {
			// A map marshals with sorted keys, keeping the header stable.
			hdr := map[string]any{
				"kind":     "run",
				"workload": k.rec.Name,
				"config":   k.rec.Cfg,
			}
			if len(k.rec.TailExemplars) > 0 {
				hdr["tail_exemplars"] = k.rec.TailExemplars
			}
			if err := enc.Encode(hdr); err != nil {
				return err
			}
			if err := k.rec.Txn.WriteJSONL(w); err != nil {
				return err
			}
		}
		return nil
	})
}

// run is the testable entry point; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("paperbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	onlyFlag := fs.String("only", "", "comma-separated subset: table2,table3,fig2,...,fig10,breakdown")
	appsFlag := fs.String("apps", "", "restrict fig2 to these comma-separated apps")
	quiet := fs.Bool("q", false, "suppress per-run progress lines")
	csvDir := fs.String("csv", "", "also write each figure's series as CSV files into this directory")
	artifactsDir := fs.String("artifacts", "", "write a machine-readable manifest.jsonl (one record per simulation) into this directory")
	jobs := fs.Int("j", runtime.GOMAXPROCS(0), "max concurrent simulations (output is identical at any -j)")
	jobTimeout := fs.Duration("job-timeout", 0, "wall-clock watchdog per simulation (0 = off); timed-out jobs fail with a progress dump")
	resume := fs.Bool("resume", false, "keep the -artifacts DIR/store result store of an earlier campaign of this binary, so only missing and failed jobs simulate (requires -artifacts, excludes -store)")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile of the whole campaign to this file")
	blockProfile := fs.String("blockprofile", "", "write a pprof blocking profile (rate 1) to this file; shows where goroutines wait")
	txnTrace := fs.String("txn-trace", "", "arm per-run transaction tracing with worst-K tail exemplars, write every retained tree as JSONL to this file, and record tail_exemplars blocks in the manifest")
	cli := bench.NewCLI(fs, "default", stderr)
	cli.Note = "# paperbench:"
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if err := cli.Validate(); err != nil {
		fmt.Fprintln(stderr, "paperbench:", err)
		return 2
	}
	if *jobTimeout < 0 {
		fmt.Fprintln(stderr, "paperbench: -job-timeout must be non-negative")
		return 2
	}
	if *resume && *artifactsDir == "" {
		fmt.Fprintln(stderr, "paperbench: -resume requires -artifacts (its DIR/store holds the results to reuse)")
		return 2
	}
	if *resume && cli.StoreDir != "" {
		fmt.Fprintln(stderr, "paperbench: -resume reuses -artifacts DIR/store and cannot be combined with -store")
		return 2
	}

	// Profiling wraps the whole campaign: start before any simulation
	// spawns, flush via defer so every return path (including partial
	// and fatal exits) still writes usable profiles.
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(stderr, "paperbench: -cpuprofile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "paperbench: -cpuprofile: %v\n", err)
			f.Close()
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *blockProfile != "" {
		runtime.SetBlockProfileRate(1)
		defer func() {
			runtime.SetBlockProfileRate(0)
			if err := bench.WriteFile(*blockProfile, func(w io.Writer) error {
				return pprof.Lookup("block").WriteTo(w, 0)
			}); err != nil {
				fmt.Fprintf(stderr, "paperbench: -blockprofile: %v\n", err)
			}
		}()
	}

	only := []string{"table2", "table3"}
	for _, f := range bench.Figures {
		only = append(only, f.Name)
	}
	want := map[string]bool{}
	if *onlyFlag != "" {
		for _, k := range strings.Split(*onlyFlag, ",") {
			k = strings.TrimSpace(k)
			if !slices.Contains(only, k) {
				fmt.Fprintf(stderr, "paperbench: -only: unknown name %q (have %v)\n", k, only)
				return 2
			}
			want[k] = true
		}
	}
	sel := func(k string) bool { return len(want) == 0 || want[k] }

	var apps []string
	if *appsFlag != "" {
		apps = strings.Split(*appsFlag, ",")
		for _, app := range apps {
			if _, err := workload.Get(app); err != nil {
				fmt.Fprintf(stderr, "paperbench: -apps: %v\n", err)
				return 2
			}
		}
	}

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintf(stderr, "paperbench: %v\n", err)
			return 1
		}
	}
	var ioFail error
	writeCSV := func(name string, tb *stats.Table) {
		if *csvDir != "" && ioFail == nil {
			ioFail = bench.WriteFile(filepath.Join(*csvDir, name+".csv"), tb.WriteCSV)
		}
	}

	// The persistent result store: verified results from any previous
	// campaign of this executable are recalled instead of re-simulated.
	// Every record is renamed into place whole, so -store or -resume
	// after a SIGKILL just works. -artifacts without -store stores into
	// DIR/store, emptied first unless this campaign resumes.
	if cli.StoreDir == "" && *artifactsDir != "" {
		cli.StoreDir = filepath.Join(*artifactsDir, "store")
		if !*resume {
			if err := os.RemoveAll(cli.StoreDir); err != nil {
				fmt.Fprintf(stderr, "paperbench: %v\n", err)
				return 1
			}
		}
	}
	// Campaign telemetry is allocated when anything will read it: -http,
	// or the in-place status line on an interactive stderr. With neither,
	// r.Telemetry stays nil and every span call is a no-op — figure
	// output is byte-identical regardless.
	useStatus := !*quiet && telemetry.IsTerminal(stderr)
	r, err := cli.Open(useStatus)
	if err != nil {
		fmt.Fprintln(stderr, "paperbench:", err)
		return 1
	}
	r.Workers = *jobs
	r.JobTimeout = *jobTimeout
	var txns *txnSink
	if *txnTrace != "" {
		r.TxnExemplars = txntrace.DefaultK
		txns = &txnSink{}
	}
	tele := r.Telemetry
	var sl *telemetry.StatusLine
	if !*quiet {
		if useStatus {
			// Interactive terminal: progress lines scroll above a single
			// redrawn-in-place campaign summary line.
			sl = telemetry.NewStatusLine(stderr, tele)
			sl.Start(0)
			r.Progress = sl.Writer()
		} else {
			r.Progress = stderr
		}
	}
	var manifest *manifestWriter
	if *artifactsDir != "" {
		if manifest, err = newManifestWriter(*artifactsDir, r.Scale.String(), stderr); err != nil {
			fmt.Fprintf(stderr, "paperbench: %v\n", err)
			return cli.Finish(1)
		}
		r.OnRecord = manifest.record
	}
	if txns != nil {
		prev := r.OnRecord
		r.OnRecord = func(rec bench.Record) {
			if prev != nil {
				prev(rec)
			}
			txns.record(rec)
		}
	}
	out := stdout
	start := time.Now()

	// check lets a partially-failed grid keep the campaign going: ERR
	// cells and the summary line are already rendered, the exit code
	// becomes 3. Table 3 and the figures return no other error.
	partial := false
	check := func(what string, err error) {
		if err != nil {
			fmt.Fprintf(stderr, "# paperbench: %s: %v\n", what, err)
			partial = true
		}
	}

	if sel("table2") {
		bench.Table2(out)
		fmt.Fprintln(out)
	}
	if sel("table3") {
		tele.BeginGroup("table3")
		rows, err := r.Table3(out)
		check("table3", err)
		tb := stats.NewTable("", "app", "l1miss", "l2miss", "instrPerL1Miss", "cycPerL2Miss", "offchipMBps")
		for _, row := range rows {
			if row.Err {
				tb.Row(row.App, "ERR", "ERR", "ERR", "ERR", "ERR")
				continue
			}
			tb.Row(row.App, row.L1MissRate, row.L2MissRate, row.InstrPerL1Miss, row.CyclesPerL2, row.OffChipMBps)
		}
		writeCSV("table3", tb)
		fmt.Fprintln(out)
	}
	for _, f := range bench.Figures {
		if !sel(f.Name) {
			continue
		}
		tele.BeginGroup(f.Name)
		panels, err := r.Render(out, f, apps)
		check(f.Name, err)
		for _, p := range panels {
			writeCSV(p.Name, p.CSV)
		}
		fmt.Fprintln(out)
	}
	r.Close() // drain pending progress lines before the summary
	sl.Stop() // clear the status line; summary lines below scroll normally

	if manifest != nil {
		if err := manifest.close(); err != nil {
			fmt.Fprintf(stderr, "paperbench: manifest: %v\n", err)
			return cli.Finish(1)
		}
	}
	if txns != nil {
		if err := txns.write(*txnTrace); err != nil {
			fmt.Fprintf(stderr, "paperbench: -txn-trace: %v\n", err)
			return cli.Finish(1)
		}
	}
	if ioFail != nil {
		fmt.Fprintf(stderr, "paperbench: csv: %v\n", ioFail)
		return cli.Finish(1)
	}
	if store := r.Store; store != nil {
		// Release the store before reporting. Each Put was durable when it
		// returned, so everything this campaign simulated is on disk by
		// the time the summary prints.
		if err := store.Close(); err != nil {
			fmt.Fprintf(stderr, "paperbench: -store: %v\n", err)
			return cli.Finish(1)
		}
		st := store.Stats()
		fmt.Fprintf(stderr, "# paperbench: store: %d hits, %d misses, %d results persisted (%d records, %d bytes)\n",
			st.Hits, st.Misses, st.Puts, st.Records, st.Bytes)
	}
	fmt.Fprintf(stderr, "# paperbench finished in %v\n", time.Since(start).Round(time.Millisecond))
	if partial {
		ok, failed := r.Outcome()
		fmt.Fprintf(stderr, "# paperbench: partial results: %d ok / %d failed\n", ok, failed)
		return cli.Finish(3)
	}
	return cli.Finish(0)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
