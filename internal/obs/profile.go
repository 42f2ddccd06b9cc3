package obs

import (
	"errors"
	"os"
	"runtime"
	"runtime/pprof"
)

// StartProfiles starts the host profiles the CLIs' -cpuprofile and
// -memprofile flags ask for: a CPU profile written to cpuPath from now
// until stop, and a heap profile (live and cumulative allocations)
// written to memPath when stop runs. An empty path skips that profile,
// so with both empty nothing is started or written. Profiles measure
// the host process, not virtual time; they never feed a deterministic
// export. Both files are pprof's gzip-compressed protobuf, read with
// `go tool pprof`.
func StartProfiles(cpuPath, memPath string) (stop func() error, err error) {
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
		var errs []error
		if cpu != nil {
			pprof.StopCPUProfile()
			errs = append(errs, cpu.Close())
		}
		if memPath != "" {
			errs = append(errs, writeHeapProfile(memPath))
		}
		return errors.Join(errs...)
	}, nil
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // settle the live-heap figures at the moment of writing
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
