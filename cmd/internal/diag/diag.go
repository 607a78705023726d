// Package diag holds the opt-in runtime diagnostics the commands
// expose as -cpuprofile, -memprofile and -trace.
package diag

import (
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
)

// Start enables the pprof/trace hooks whose file names are non-empty
// and returns the stop function to defer in the command's run. Both
// setup and teardown report errors instead of exiting, so a failure
// mid-run still flushes and closes whatever was already started.
func Start(cpuprofile, memprofile, traceFile string) (func() error, error) {
	var stops []func() error
	stopAll := func() error {
		var first error
		for i := len(stops) - 1; i >= 0; i-- {
			if err := stops[i](); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	if traceFile != "" {
		f, err := os.Create(traceFile)
		if err != nil {
			return nil, err
		}
		if err := trace.Start(f); err != nil {
			f.Close()
			return nil, err
		}
		stops = append(stops, func() error { trace.Stop(); return f.Close() })
	}
	if cpuprofile != "" {
		f, err := os.Create(cpuprofile)
		if err != nil {
			stopAll()
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			stopAll()
			return nil, err
		}
		stops = append(stops, func() error { pprof.StopCPUProfile(); return f.Close() })
	}
	if memprofile != "" {
		stops = append(stops, func() error {
			f, err := os.Create(memprofile)
			if err != nil {
				return err
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				f.Close()
				return err
			}
			return f.Close()
		})
	}
	return stopAll, nil
}
