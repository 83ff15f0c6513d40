package cliutil

import (
	"flag"
	"fmt"
)

// TraceFlags is the record-once/replay-many flag surface shared by the
// sweep CLIs (figures, svat, characterize): whether the shared
// functional-trace store is enabled and how many resident bytes it may
// hold. Register with AddTraceFlags, Validate after parsing, and hand the
// values to experiments.Options.TraceMode / TraceBudget.
type TraceFlags struct {
	Mode   string
	Budget int64
}

// AddTraceFlags registers the trace-store flags on fs (normally
// flag.CommandLine) and returns the struct they parse into.
func AddTraceFlags(fs *flag.FlagSet) *TraceFlags {
	f := &TraceFlags{}
	fs.StringVar(&f.Mode, "trace-mode", "auto", "functional trace store: \"auto\" records each measured window once and replays it for every other configuration of the sweep; \"off\" re-emulates every window")
	fs.Int64Var(&f.Budget, "trace-budget", 256<<20, "resident byte budget of the shared trace store under -trace-mode=auto (LRU-evicted beyond this)")
	return f
}

// Validate rejects inconsistent combinations before a long run starts.
func (f *TraceFlags) Validate() error {
	switch f.Mode {
	case "auto", "off":
	default:
		return fmt.Errorf("invalid -trace-mode %q: must be \"auto\" or \"off\"", f.Mode)
	}
	if f.Budget <= 0 {
		return fmt.Errorf("invalid -trace-budget %d: must be > 0", f.Budget)
	}
	return nil
}
