package main

import (
	"syscall"
	"time"
	"unsafe"
)

// clockProcessCPUTime is Linux's CLOCK_PROCESS_CPUTIME_ID.
const clockProcessCPUTime = 2

// cpuNow reads the process CPU clock: the time all of the process's threads
// have spent running. Time the machine gives to other tenants, or spends with
// this VM's vCPU descheduled, does not count, which is what keeps host-time
// figures steady on a shared machine.
func cpuNow() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("perfbench: clock_gettime: " + errno.Error())
	}
	return time.Duration(ts.Nano())
}
