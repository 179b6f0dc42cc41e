package bench

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/resultstore"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// CLI is what memsim and paperbench share around the jobs they run:
// the -scale, -store, -store-max-bytes, -http, -http-linger and
// -flightrec flags, and one lifecycle. Register the flags with NewCLI,
// parse, Validate, Open a Runner, run jobs through it, and return
// through Finish.
type CLI struct {
	// Note prefixes informational stderr lines (memsim writes "memsim:",
	// paperbench "# paperbench:" as on its summary lines). Error lines
	// take the flag set's name.
	Note string
	// StoreDir is -store; set it before Open to store elsewhere
	// (paperbench -artifacts DIR/store).
	StoreDir string

	scaleName  string
	storeMax   int64
	httpAddr   string
	httpLinger time.Duration
	flightRec  int

	scale  workload.Scale // set by Validate
	prog   string
	stderr io.Writer
	r      *Runner // set by Open
	srv    *telemetry.Server
}

// NewCLI registers the shared flags on fs, with scale as the -scale
// default, and reports to stderr.
func NewCLI(fs *flag.FlagSet, scale string, stderr io.Writer) *CLI {
	c := &CLI{Note: fs.Name() + ":", prog: fs.Name(), stderr: stderr}
	fs.StringVar(&c.scaleName, "scale", scale, "dataset scale: small, default or paper")
	fs.StringVar(&c.StoreDir, "store", "", "persistent result store directory, created if missing: verified results are recalled instead of re-simulated (crash-safe; corrupt records are deleted and re-run; empty = off)")
	fs.Int64Var(&c.storeMax, "store-max-bytes", 0, "once the store's record files exceed this many bytes, delete the least recently used (0 = unlimited; requires -store)")
	fs.StringVar(&c.httpAddr, "http", "", "serve live telemetry on this address: GET /metrics, /progress, /debug/pprof (empty = off)")
	fs.DurationVar(&c.httpLinger, "http-linger", 0, "keep -http serving this long after the last job finishes (ends early on /quit)")
	fs.IntVar(&c.flightRec, "flightrec", 256, "per-job flight-recorder depth: the last K scheduler events reported with a typed failure (0 = off)")
	return c
}

// Validate checks the shared flags after parsing.
func (c *CLI) Validate() error {
	var err error
	if c.scale, err = workload.ParseScale(c.scaleName); err != nil {
		return err
	}
	switch {
	case c.flightRec < 0:
		return errors.New("-flightrec must be non-negative")
	case c.httpLinger < 0:
		return errors.New("-http-linger must be non-negative")
	case c.httpLinger > 0 && c.httpAddr == "":
		return errors.New("-http-linger requires -http")
	case c.storeMax < 0:
		return errors.New("-store-max-bytes must be non-negative")
	case c.storeMax > 0 && c.StoreDir == "":
		return errors.New("-store-max-bytes requires -store")
	}
	return nil
}

// Open returns a Runner at the -scale with the -flightrec depth, the
// result store opened from StoreDir (if set) and a telemetry campaign
// (with -http, or when status asks for one to draw a status line from)
// served on -http. On error nothing stays open.
func (c *CLI) Open(status bool) (*Runner, error) {
	r := NewRunner(c.scale)
	r.FlightRecorder = c.flightRec
	if c.StoreDir != "" {
		st, err := resultstore.Open(resultstore.Options{Dir: c.StoreDir, MaxBytes: c.storeMax, Log: c.stderr})
		if err != nil {
			return nil, fmt.Errorf("-store: %w", err)
		}
		r.Store = st
	}
	if c.httpAddr != "" || status {
		r.Telemetry = telemetry.NewCampaign()
		if r.Store != nil {
			r.Telemetry.SetStoreStats(r.Store.Stats)
		}
	}
	if c.httpAddr != "" {
		srv, err := telemetry.Serve(c.httpAddr, r.Telemetry)
		if err != nil {
			if r.Store != nil {
				r.Store.Close()
			}
			return nil, fmt.Errorf("-http: %w", err)
		}
		c.srv = srv
		fmt.Fprintf(c.stderr, "%s telemetry on http://%s (/metrics, /progress, /debug/pprof)\n", c.Note, srv.Addr())
	}
	c.r = r
	return r, nil
}

// Finish ends a run that Open started and returns its exit code: it
// closes the store (a failure turns code into 1), marks the campaign
// complete so /progress reports the final counts, lingers on
// -http-linger (or until /quit) so a scraper can take its last look,
// and stops the server.
func (c *CLI) Finish(code int) int {
	if c.r.Store != nil {
		if err := c.r.Store.Close(); err != nil {
			fmt.Fprintf(c.stderr, "%s: -store: %v\n", c.prog, err)
			code = 1
		}
	}
	c.r.Telemetry.SetComplete()
	if c.srv != nil {
		c.srv.WaitQuit(c.httpLinger)
		c.srv.Close()
	}
	return code
}

// WriteFile creates path, lets write fill it, and returns the first
// error of the create, the write and the close.
func WriteFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
