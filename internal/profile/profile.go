// Package profile writes the Go pprof profiles that the commands'
// -cpuprofile and -memprofile flags ask for.
package profile

import (
	"errors"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins a CPU profile into cpuPath (none when empty) and returns
// stop, which ends it and writes a heap profile to memPath (none when
// empty). Callers defer stop, so both files are complete whether or not
// the command succeeds.
func Start(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() error {
		var cerr, merr error
		if cpu != nil {
			pprof.StopCPUProfile()
			cerr = cpu.Close()
		}
		if memPath != "" {
			merr = writeHeap(memPath)
		}
		return errors.Join(cerr, merr)
	}, nil
}

func writeHeap(path string) error {
	runtime.GC()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
