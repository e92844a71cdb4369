package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat. It is
// 100 on every Linux architecture Go supports; reading it via sysconf would
// need cgo.
const clockTicks = 100

// parseStatCPU returns utime+stime in clock ticks from the contents of
// /proc/<pid>/stat. The command name is parenthesised and may hold spaces,
// so fields are counted from the last ')'.
func parseStatCPU(stat []byte) (uint64, error) {
	i := bytes.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no command name")
	}
	// After ')': state(3) ppid(4) ... utime(14) stime(15).
	f := strings.Fields(string(stat[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after command", len(f))
	}
	utime, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat utime: %w", err)
	}
	stime, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat stime: %w", err)
	}
	return utime + stime, nil
}

// parseKB returns the value of a "Key:   1234 kB" line from
// /proc/<pid>/status or /proc/meminfo.
func parseKB(data []byte, key string) (int64, error) {
	for _, line := range strings.Split(string(data), "\n") {
		rest, ok := strings.CutPrefix(line, key+":")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) == 0 {
			break
		}
		v, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", key, err)
		}
		return v, nil
	}
	return 0, fmt.Errorf("%s: not found", key)
}

// procCPUSeconds is the user+system CPU time the process has used.
func procCPUSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	ticks, err := parseStatCPU(b)
	return float64(ticks) / clockTicks, err
}

// procStatusKB reads one kB field (VmRSS, VmHWM) of /proc/<pid>/status.
func procStatusKB(pid int, key string) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseKB(b, key)
}

// meminfoKB reads one field of /proc/meminfo.
func meminfoKB(key string) (int64, error) {
	b, err := os.ReadFile("/proc/meminfo")
	if err != nil {
		return 0, err
	}
	return parseKB(b, key)
}
