package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTick is the kernel's USER_HZ: the unit of the utime/stime fields
// in /proc/<pid>/stat. It is 100 on every Linux architecture Go supports.
const clockTick = 100

// parseStatCPU extracts user+system CPU time from the contents of
// /proc/<pid>/stat. The command name (field 2) is parenthesised and may
// itself contain spaces and parentheses, so fields are counted from the
// last ')'.
func parseStatCPU(stat []byte) (time.Duration, error) {
	end := bytes.LastIndexByte(stat, ')')
	if end < 0 {
		return 0, fmt.Errorf("proc stat: no command field in %q", stat)
	}
	fields := strings.Fields(string(stat[end+1:]))
	// After the command: state is field 3, so utime (14) and stime (15)
	// are at offsets 11 and 12.
	if len(fields) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after command, want at least 13", len(fields))
	}
	utime, err := strconv.ParseUint(fields[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: utime: %w", err)
	}
	stime, err := strconv.ParseUint(fields[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: stime: %w", err)
	}
	return time.Duration(utime+stime) * time.Second / clockTick, nil
}

// parseStatusKB extracts one "Key:   123 kB" line (VmHWM, VmRSS) from the
// contents of /proc/<pid>/status, in bytes.
func parseStatusKB(status []byte, key string) (int64, error) {
	sc := bufio.NewScanner(bytes.NewReader(status))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, key+":") {
			continue
		}
		fields := strings.Fields(line[len(key)+1:])
		if len(fields) != 2 || fields[1] != "kB" {
			return 0, fmt.Errorf("proc status: malformed %s line %q", key, line)
		}
		kb, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("proc status: %s: %w", key, err)
		}
		return kb << 10, nil
	}
	return 0, fmt.Errorf("proc status: no %s line", key)
}

// cpuTime reads a live process's user+system CPU time.
func cpuTime(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(b)
}

// peakRSS reads a live process's resident-set high-water mark in bytes.
func peakRSS(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseStatusKB(b, "VmHWM")
}

// hostCPU is the first line of /proc/stat: jiffies the whole machine has
// spent in each state since boot.
type hostCPU struct {
	total, steal, iowait uint64
}

// parseHostCPU reads the aggregate "cpu" line of /proc/stat. Steal is
// time the hypervisor ran someone else while this guest wanted the CPU:
// the first thing to look at when a run on a shared host reads slow.
func parseHostCPU(stat []byte) (hostCPU, error) {
	line := firstLine(stat)
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return hostCPU{}, fmt.Errorf("proc stat: malformed cpu line %q", line)
	}
	var h hostCPU
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return hostCPU{}, fmt.Errorf("proc stat: cpu line field %d: %w", i+1, err)
		}
		if i < 8 { // guest time (fields 9, 10) is already inside user and nice
			h.total += v
		}
		switch i {
		case 4:
			h.iowait = v
		case 7:
			h.steal = v
		}
	}
	return h, nil
}

func readHostCPU() hostCPU {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	h, _ := parseHostCPU(b)
	return h
}

// selfCPU is this process's own user+system CPU time, for the load
// generator's share of the machine.
func selfCPU() time.Duration {
	d, err := cpuTime(os.Getpid())
	if err != nil {
		return 0
	}
	return d
}

// dirBytes sums the sizes of the regular files under root. A path that
// does not exist counts as empty: a daemon that has not checkpointed yet
// has no snapshot.
func dirBytes(root string) (int64, error) {
	var total int64
	err := filepath.WalkDir(root, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			if os.IsNotExist(err) {
				return nil // a checkpoint's temp file may vanish mid-walk
			}
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				if os.IsNotExist(err) {
					return nil
				}
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// fsTypeNames maps statfs magic numbers to names for the results header.
var fsTypeNames = map[int64]string{
	0xef53:     "ext4",
	0x01021994: "tmpfs",
	0x58465342: "xfs",
	0x9123683e: "btrfs",
	0x794c7630: "overlayfs",
	0x6969:     "nfs",
	0x2fc12fc1: "zfs",
}

// fsType names the filesystem holding path, so a reader of the results
// can tell a real disk from tmpfs.
func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsTypeNames[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// probeFsync times n small append+fsync cycles in dir and returns each
// duration in microseconds: the host's disk figure the durable workload's
// wall-clock numbers must be read against.
func probeFsync(dir string, n int) ([]float64, error) {
	f, err := os.CreateTemp(dir, "fsync-probe-*")
	if err != nil {
		return nil, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	buf := make([]byte, 512)
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if _, err := f.Write(buf); err != nil {
			return nil, err
		}
		start := time.Now()
		if err := f.Sync(); err != nil {
			return nil, err
		}
		out = append(out, float64(time.Since(start))/float64(time.Microsecond))
	}
	return out, nil
}
