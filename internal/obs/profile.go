package obs

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"runtime"
	"runtime/pprof"
	"time"
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
	// MetricsJSON writes the metrics snapshot at Close ("-" = stdout).
	MetricsJSON string
	// DebugAddr serves net/http/pprof, expvar, live /metrics (JSON and
	// Prometheus text), /healthz, /timeseries and — when an event stream is
	// wired via SetEventStream — the /events SSE feed.
	DebugAddr string
	// SampleInterval is the /timeseries sampling period (0 keeps the 1s
	// default). Only meaningful with DebugAddr.
	SampleInterval time.Duration
	// LogJSON switches structured logging to the slog JSON handler
	// (machine-parseable one-line-per-event); off, the text handler is used.
	LogJSON bool

	// events feeds the debug server's /events SSE stream; set it with
	// SetEventStream before Start.
	events EventSource
	// attribution feeds the debug server's /attribution endpoint; set it
	// with SetAttributionSource before Start.
	attribution func() any
}

// SetEventStream wires a live event source (normally a ledger adapter)
// into the debug server's /events endpoint. Must be called before Start to
// take effect; a nil source leaves /events disabled.
func (f *Flags) SetEventStream(src EventSource) { f.events = src }

// SetAttributionSource wires an attribution-report provider (normally a
// closure over the latest *attr.Report) into the debug server's
// /attribution endpoint. Must be called before Start to take effect; a nil
// source leaves /attribution disabled.
func (f *Flags) SetAttributionSource(src func() any) { f.attribution = src }

// RegisterFlags declares the observability flags on fs (normally
// flag.CommandLine) and returns the struct they parse into.
func RegisterFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a pprof CPU profile to this file")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write a pprof heap profile to this file on exit")
	fs.StringVar(&f.TraceOut, "trace-out", "", "write a Chrome trace_event span timeline JSON to this file on exit")
	fs.StringVar(&f.MetricsJSON, "metrics-json", "", "write the metrics snapshot JSON to this file on exit (- = stdout)")
	fs.StringVar(&f.DebugAddr, "debug-addr", "", "serve net/http/pprof, expvar, /metrics (JSON or Prometheus text), /healthz, /events and /timeseries on this address (e.g. localhost:6060)")
	fs.DurationVar(&f.SampleInterval, "sample-interval", 0, "debug-server /timeseries sampling period (default 1s)")
	fs.BoolVar(&f.LogJSON, "log-json", false, "emit structured logs as JSON (log/slog) instead of text")
	return f
}

// Logger builds the CLI's structured logger on stderr, honouring -log-json.
// verbose (the CLIs' -v flag) lowers the level to Debug, which also makes
// flight-recorder events mirrored into slog visible.
func (f *Flags) Logger(verbose bool) *slog.Logger {
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

// Session is the live state behind a parsed Flags: the registry (nil when
// no metrics sink was requested), the running CPU profile, and the debug
// listener. Close flushes everything.
type Session struct {
	flags   *Flags
	reg     *Registry
	cpuFile *os.File
	debug   *DebugServer
	sampler *Sampler
}

// Start opens the requested sinks. It returns a non-nil Session even when
// every flag is empty; Recorder() is then nil and Close is a no-op, so
// callers need no conditionals.
func (f *Flags) Start() (*Session, error) {
	s := &Session{flags: f}
	if f.MetricsJSON != "" || f.TraceOut != "" || f.DebugAddr != "" {
		s.reg = NewRegistry()
		if f.TraceOut != "" {
			s.reg.EnableTrace()
		}
	}
	if f.CPUProfile != "" {
		fd, err := os.Create(f.CPUProfile)
		if err != nil {
			return nil, fmt.Errorf("obs: cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(fd); err != nil {
			fd.Close()
			return nil, fmt.Errorf("obs: cpuprofile: %w", err)
		}
		s.cpuFile = fd
	}
	if f.DebugAddr != "" {
		if s.reg != nil {
			s.sampler = NewSampler(s.reg, f.SampleInterval, 0)
			s.sampler.Start()
		}
		srv, err := ServeWith(f.DebugAddr, ServeOpts{
			Registry:    s.reg,
			Events:      f.events,
			Sampler:     s.sampler,
			Attribution: f.attribution,
		})
		if err != nil {
			s.Close()
			return nil, err
		}
		s.debug = srv
	}
	return s, nil
}

// DebugAddr returns the bound debug-listener address ("" when disabled).
func (s *Session) DebugAddr() string {
	if s == nil || s.debug == nil {
		return ""
	}
	return s.debug.Addr()
}

// Recorder returns the session's Recorder, or untyped nil when no metrics
// sink was requested (keeping the nil-Recorder fast path).
func (s *Session) Recorder() Recorder {
	if s == nil || s.reg == nil {
		return nil
	}
	return s.reg
}

// Registry exposes the underlying registry (nil when disabled).
func (s *Session) Registry() *Registry {
	if s == nil {
		return nil
	}
	return s.reg
}

// Close stops the CPU profile, writes the heap profile, metrics snapshot
// and span timeline, and shuts the debug listener down. Safe on a nil or
// empty session; the first error is returned but every sink is attempted.
func (s *Session) Close() error {
	if s == nil {
		return nil
	}
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
		keep(writeFile(s.flags.MemProfile, func(w io.Writer) error {
			return pprof.WriteHeapProfile(w)
		}))
	}
	if s.reg != nil && s.flags.MetricsJSON != "" {
		if s.flags.MetricsJSON == "-" {
			keep(s.reg.WriteJSON(os.Stdout))
		} else {
			keep(writeFile(s.flags.MetricsJSON, s.reg.WriteJSON))
		}
	}
	if s.reg != nil && s.flags.TraceOut != "" {
		keep(writeFile(s.flags.TraceOut, s.reg.WriteTrace))
	}
	if s.debug != nil {
		s.debug.Close()
		s.debug = nil
	}
	if s.sampler != nil {
		s.sampler.Stop()
		s.sampler = nil
	}
	return first
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
