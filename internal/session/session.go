// Package session is the observability session every CLI runs under. It
// registers the shared flags (-cpuprofile, -memprofile, -trace-out,
// -run-out, -debug-addr, -log-json), attaches the run's sinks — the metrics
// registry, the flight-recorder ledger and the stage profiler — to one
// context, mirrors the ledger to the logger under -v, serves everything live
// under -debug-addr, and at Close writes the run bundle: one versioned file
// holding the metrics snapshot, the ledger, the stage profile and the
// attribution report of the run, each where the CLI records it.
//
// The package sits above obs and ledger because the bundle names both
// (ledger imports lp, which imports obs). It carries no sink of its own:
// the sinks ride the context, and Close reads them back from it.
package session

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"runtime"
	"runtime/pprof"
	"sync/atomic"

	"github.com/arrow-te/arrow/internal/attr"
	"github.com/arrow-te/arrow/internal/ledger"
	"github.com/arrow-te/arrow/internal/obs"
)

// Flags is the shared observability flag set of the CLIs. Register it on
// the command line with RegisterFlags, then bracket the program's work
// between Start and Close.
type Flags struct {
	// CPUProfile writes a pprof CPU profile covering Start..Close.
	CPUProfile string
	// MemProfile writes a pprof heap profile at Close (after a GC).
	MemProfile string
	// TraceOut writes the Chrome trace_event span timeline at Close.
	TraceOut string
	// RunOut writes the run bundle at Close.
	RunOut string
	// DebugAddr serves net/http/pprof, expvar, live /metrics (JSON and
	// Prometheus text), /healthz, /timeseries, /attribution and, when the
	// CLI records a ledger, the /events SSE feed.
	DebugAddr string
	// LogJSON switches structured logging to the slog JSON handler
	// (machine-parseable one-line-per-event); off, the text handler is used.
	LogJSON bool
}

// RegisterFlags declares the observability flags on fs (normally
// flag.CommandLine) and returns the struct they parse into.
func RegisterFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a pprof CPU profile to this file")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write a pprof heap profile to this file on exit")
	fs.StringVar(&f.TraceOut, "trace-out", "", "write a Chrome trace_event span timeline JSON to this file on exit")
	fs.StringVar(&f.RunOut, "run-out", "", "write the run bundle JSON (metrics, ledger, stage profile, attribution) to this file on exit; arrow-report renders and diffs it")
	fs.StringVar(&f.DebugAddr, "debug-addr", "", "serve net/http/pprof, expvar, /metrics (JSON or Prometheus text), /healthz, /events, /timeseries and /attribution on this address (e.g. localhost:6060)")
	fs.BoolVar(&f.LogJSON, "log-json", false, "emit structured logs as JSON (log/slog) instead of text")
	return f
}

// newLogger builds the CLI's structured logger on stderr, honouring
// -log-json. verbose (the CLIs' -v flag) lowers the level to Debug, which
// also makes flight-recorder events mirrored into slog visible.
func (f *Flags) newLogger(verbose bool) *slog.Logger {
	level := slog.LevelInfo
	if verbose {
		level = slog.LevelDebug
	}
	opts := &slog.HandlerOptions{Level: level}
	if f.LogJSON {
		return slog.New(slog.NewJSONHandler(os.Stderr, opts))
	}
	return slog.New(slog.NewTextHandler(os.Stderr, opts))
}

// Record says which sinks a CLI records into beyond the metrics registry.
type Record uint8

const (
	// Ledger records the flight-recorder ledger whenever something reads
	// it: -run-out, -debug-addr's /events or -v's log mirror.
	Ledger Record = 1 << iota
	// Report records the registry, the ledger and the stage profile
	// whatever the flags ask for: the CLI renders the run itself.
	Report
)

// Session is the live state behind a parsed Flags: the context carrying the
// run's sinks, the running CPU profile and the debug listener. Close
// flushes everything.
type Session struct {
	flags   *Flags
	ctx     context.Context
	logger  *slog.Logger
	cpuFile *os.File
	debug   *obs.DebugServer
	sampler *obs.Sampler
	attr    atomic.Pointer[attr.Report]
}

// Start opens the sinks the flags and rec ask for and attaches them to the
// session's context. The registry is live when an output reads it
// (-run-out, -trace-out, -debug-addr) or under Report; with every flag
// empty and rec 0 the context carries no sink and Close writes nothing.
// verbose (the CLI's -v) sets the logger's level and mirrors the ledger
// into it.
func (f *Flags) Start(rec Record, verbose bool) (*Session, error) {
	s := &Session{flags: f, ctx: context.Background(), logger: f.newLogger(verbose)}
	report := rec&Report != 0
	if report || f.RunOut != "" || f.TraceOut != "" || f.DebugAddr != "" {
		reg := obs.NewRegistry()
		if f.TraceOut != "" {
			reg.EnableTrace()
		}
		s.ctx = obs.WithRecorder(s.ctx, reg)
	}
	var led *ledger.Ledger
	if report || rec&Ledger != 0 && (f.RunOut != "" || f.DebugAddr != "" || verbose) {
		led = ledger.New()
		if verbose {
			led.SetLogger(s.logger)
		}
		s.ctx = ledger.WithLedger(s.ctx, led)
	}
	if report {
		s.ctx = obs.WithProfiler(s.ctx, obs.NewStageProfiler())
	}
	if f.CPUProfile != "" {
		fd, err := os.Create(f.CPUProfile)
		if err != nil {
			return nil, fmt.Errorf("session: cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(fd); err != nil {
			fd.Close()
			return nil, fmt.Errorf("session: cpuprofile: %w", err)
		}
		s.cpuFile = fd
	}
	if f.DebugAddr != "" {
		reg := s.registry()
		s.sampler = obs.NewSampler(reg, 0, 0)
		s.sampler.Start()
		opts := obs.ServeOpts{Registry: reg, Sampler: s.sampler, Attribution: func() any {
			if rep := s.attr.Load(); rep != nil {
				return rep
			}
			return nil
		}}
		if led != nil {
			opts.Events = func(buf int) obs.EventSub { return led.SubscribeJSON(buf) }
		}
		srv, err := obs.ServeWith(f.DebugAddr, opts)
		if err != nil {
			s.Close()
			return nil, err
		}
		s.debug = srv
		s.logger.Info("debug listener started", "url", "http://"+srv.Addr())
	}
	return s, nil
}

// Context returns the context carrying the session's sinks; the CLI runs
// its work under it.
func (s *Session) Context() context.Context { return s.ctx }

// Logger returns the CLI's structured logger.
func (s *Session) Logger() *slog.Logger { return s.logger }

// SetAttribution publishes the run's attribution report: /attribution
// serves it from now on, and the bundle carries it.
func (s *Session) SetAttribution(rep *attr.Report) { s.attr.Store(rep) }

// registry returns the registry on the session's context, or nil.
func (s *Session) registry() *obs.Registry {
	reg, _ := obs.FromContext(s.ctx).(*obs.Registry)
	return reg
}

// Close stops the CPU profile, writes the heap profile, shuts the debug
// listener down, and then snapshots the sinks into the run bundle, which it
// writes to -run-out and returns, and writes the span timeline. Every sink
// is attempted; the first error is returned.
func (s *Session) Close() (*Bundle, error) {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if s.cpuFile != nil {
		pprof.StopCPUProfile()
		keep(s.cpuFile.Close())
		s.cpuFile = nil
	}
	if s.flags.MemProfile != "" {
		runtime.GC() // materialise live-heap accounting before the write
		keep(writeFile(s.flags.MemProfile, pprof.WriteHeapProfile))
	}
	if s.debug != nil {
		s.debug.Close()
		s.debug = nil
	}
	if s.sampler != nil {
		s.sampler.Stop()
		s.sampler = nil
	}
	b := &Bundle{SchemaVersion: SchemaVersion, Attribution: s.attr.Load()}
	reg := s.registry()
	if reg != nil {
		b.Metrics = reg.Snapshot()
	}
	if led := ledger.FromContext(s.ctx); led != nil {
		b.Ledger = led.Snapshot()
	}
	if prof := obs.ProfilerFrom(s.ctx); prof != nil {
		b.Stages = prof.Snapshot()
	}
	if s.flags.RunOut != "" {
		keep(writeFile(s.flags.RunOut, b.Write))
	}
	if reg != nil && s.flags.TraceOut != "" {
		keep(writeFile(s.flags.TraceOut, reg.WriteTrace))
	}
	return b, first
}

func writeFile(path string, write func(io.Writer) error) error {
	fd, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(fd); err != nil {
		fd.Close()
		return err
	}
	return fd.Close()
}
