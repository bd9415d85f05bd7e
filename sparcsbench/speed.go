package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// The speed probe measures how fast the host's CPUs run while the
// benchmark runs, so that CPU-bound figures can be scaled to a reference
// speed.
//
// On the shared 2-vCPU hosts this benchmark was built on, the work a CPU
// second buys changed for minutes at a time: in one set of ten 45 s
// hot_repeat runs, four consecutive runs served 1.5 times as many answers
// per CPU second as the first four, at the same CPU steal (a busy
// hyperthread sibling or a frequency change on the host looks like this).
// Neither wall time nor process CPU time can tell that apart from a change
// in the program. The probe can: it does a fixed piece of work that uses
// no code of the repository, and the CPU time it takes rises and falls
// with the host's speed. In six 15 s hot_repeat runs it halved the spread
// of answers per CPU second and of p50 latency.

// refProbe is the probe's CPU time at the reference speed, about what it
// took on the hosts the benchmark was built on. Scaled figures read as
// they would on a host where the probe takes this long.
const refProbe = 650 * time.Microsecond

const clockThreadCPUTimeID = 3 // CLOCK_THREAD_CPUTIME_ID, linux/time.h

// threadCPU is the CPU time the calling OS thread has used; the caller
// must hold its thread (runtime.LockOSThread) across the calls it compares.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// speedProbe holds the probe's input: a request-shaped JSON document of
// 200 tasks and a buffer to hash. Its work is what the service's hit path
// mostly does (decode JSON, build and sort maps and slices, encode JSON,
// hash), done with the standard library only, so that no change to the
// repository's code changes the probe.
type speedProbe struct {
	doc  []byte
	buf  []byte
	sink int
}

type probeTask struct {
	Name      string  `json:"name"`
	Type      string  `json:"type"`
	Resources int     `json:"resources"`
	Delay     float64 `json:"delay"`
	Succ      []int   `json:"succ"`
}

func newSpeedProbe() *speedProbe {
	tasks := make([]probeTask, 200)
	for i := range tasks {
		tasks[i] = probeTask{Name: fmt.Sprintf("task%03d", i), Type: fmt.Sprintf("op%d", i%7),
			Resources: 20 + i%50, Delay: float64(50 + i%101), Succ: []int{(i + 1) % 200, (i * 7) % 200}}
	}
	doc, err := json.Marshal(tasks)
	if err != nil {
		panic(err) // a fixed, encodable value
	}
	p := &speedProbe{doc: doc, buf: make([]byte, 16<<10)}
	for i := range p.buf {
		p.buf[i] = byte(i * 7)
	}
	return p
}

// run does the fixed work once and returns the thread CPU time it took
// (0 where the clock cannot be read).
func (p *speedProbe) run() time.Duration {
	t0 := threadCPU()
	var tasks []probeTask
	if err := json.Unmarshal(p.doc, &tasks); err != nil {
		panic(err) // p.doc was encoded from the same type
	}
	byType := map[string][]string{}
	for _, t := range tasks {
		byType[t.Type] = append(byType[t.Type], t.Name)
	}
	for _, names := range byType {
		sort.Sort(sort.Reverse(sort.StringSlice(names)))
	}
	out, err := json.Marshal(byType)
	if err != nil {
		panic(err)
	}
	sum := sha256.Sum256(p.buf)
	p.sink += len(out) + int(sum[0])
	t1 := threadCPU()
	if t0 == 0 || t1 <= t0 {
		return 0
	}
	return t1 - t0
}

// slowness is how much slower than the reference the probes in cpu taken
// between from and to ran: their median CPU time over refProbe (1 without
// probes).
func slowness(cpu []cpuSample, from, to time.Duration) float64 {
	var v []float64
	for _, c := range cpu {
		if c.at >= from && c.at <= to && c.probe > 0 {
			v = append(v, float64(c.probe))
		}
	}
	if len(v) == 0 {
		return 1
	}
	return median(v) / float64(refProbe)
}
