package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/service"
	"repro/internal/tempart"
)

const helperEnv = "SPARCSBENCH_TEARDOWN_HELPER"

// hangBackend is a solver whose Solve never returns and ignores its
// context, like the reordered-tree LP that spins forever.
type hangBackend struct{}

func (hangBackend) Name() string { return "bench.hang" }

func (hangBackend) Solve(context.Context, *service.Request) (*tempart.Partitioning, error) {
	select {}
}

// TestMain turns the test binary into a benchmark process when the
// teardown test re-executes it: a workload whose first request never
// returns, run through the real main, exit path included.
func TestMain(m *testing.M) {
	if os.Getenv(helperEnv) == "" {
		os.Exit(m.Run())
	}
	service.RegisterBackend(hangBackend{})
	workloads["teardown_probe"] = &workload{
		name: "teardown_probe", clients: 1,
		latencyLimit: 200 * time.Millisecond, clientTimeout: 500 * time.Millisecond,
		prepare: func(p *prep) (plan, error) {
			b := base{id: "chain4", g: chainGraph(4, 40, 100), board: "small"}
			hang, err := newOp(b, b.g, "hang", "bench.hang", 0)
			if err != nil {
				return nil, err
			}
			pl := &listPlan{ops: []*op{hang}}
			for i := 0; i < 20; i++ {
				o, err := newOp(b, b.g, b.id, p.engine, 0)
				if err != nil {
					return nil, err
				}
				pl.ops = append(pl.ops, o)
			}
			return pl, nil
		},
	}
	os.Args = []string{os.Args[0], "--workload", "teardown_probe", "--seed", "1", "--seconds", "2", "--trace", "0"}
	main()
}

func TestTeardownWithHungSolve(t *testing.T) {
	if _, err := os.Stat("/proc/self/stat"); err != nil {
		t.Skip("needs /proc to look for leftover processes")
	}
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), helperEnv+"=1")
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	pgid := cmd.Process.Pid
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("benchmark process failed: %v\n%s", err, stdout.String())
		}
	case <-time.After(60 * time.Second):
		_ = syscall.Kill(-pgid, syscall.SIGKILL)
		<-done
		t.Fatalf("benchmark process still running 60s after start; output so far:\n%s", stdout.String())
	}
	if left := groupMembers(t, pgid); len(left) > 0 {
		_ = syscall.Kill(-pgid, syscall.SIGKILL)
		t.Fatalf("processes left behind in the benchmark's group: %v", left)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, stdout.String())
	}
	if !res.Correct || res.Failed != 1 || res.Attempted < 2 {
		t.Fatalf("want the hung request as the one failure among correct answers, got %+v", res)
	}
	if !strings.Contains(stdout.String(), "client_timeout=1") {
		t.Fatalf("failure taxonomy does not count the hung request as a client timeout:\n%s", stdout.String())
	}
}

// groupMembers lists live processes in process group pgid.
func groupMembers(t *testing.T, pgid int) []int {
	t.Helper()
	stats, err := filepath.Glob("/proc/[0-9]*/stat")
	if err != nil {
		t.Fatal(err)
	}
	var out []int
	for _, path := range stats {
		raw, err := os.ReadFile(path)
		if err != nil {
			continue // the process exited while we looked
		}
		// Fields after the parenthesised command: state ppid pgrp ...
		rest := string(raw[bytes.LastIndexByte(raw, ')')+1:])
		f := strings.Fields(rest)
		if len(f) < 3 || f[0] == "Z" {
			continue
		}
		if g, _ := strconv.Atoi(f[2]); g == pgid {
			pid, _ := strconv.Atoi(filepath.Base(filepath.Dir(path)))
			out = append(out, pid)
		}
	}
	return out
}

// testSpec builds the checker's view of a three-task chain a -> b -> c on
// the small board.
func testSpec(t *testing.T, pinN int) *checkSpec {
	t.Helper()
	g := chainGraph(3, 40, 100)
	cs, err := newCheckSpec("chain3", g, arch.SmallTestBoard(), pinN, 0)
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

func decodeAnswer(t *testing.T, s string) *answer {
	t.Helper()
	var a answer
	if err := json.NewDecoder(bufio.NewReader(strings.NewReader(s))).Decode(&a); err != nil {
		t.Fatal(err)
	}
	return &a
}

// The optimal small-board answer for chainGraph(3, 40, 100): two tasks fit
// in 100 CLBs, so N=2 with chains of 200 and 100 ns on a 1 ms reconfiguration.
const goodAnswer = `{"graph":"chain","n":2,"optimal":true,"latency_ns":2000300,
 "partitions":[{"index":0,"tasks":["t0","t1"],"clbs":80,"delay_ns":200},
               {"index":1,"tasks":["t2"],"clbs":40,"delay_ns":100}],
 "assign":{"t0":0,"t1":0,"t2":1}}`

func TestCheckerAcceptsOptimalAnswer(t *testing.T) {
	if err := testSpec(t, 2).check(decodeAnswer(t, goodAnswer)); err != nil {
		t.Fatal(err)
	}
}

func TestCheckerRejectsWrongAnswers(t *testing.T) {
	for name, bad := range map[string]string{
		"latency": strings.Replace(goodAnswer, `"latency_ns":2000300`, `"latency_ns":2000200`, 1),
		"precedence": `{"n":2,"optimal":false,"latency_ns":2000200,
		 "partitions":[{"index":0,"tasks":["t0","t2"],"clbs":80,"delay_ns":100},
		               {"index":1,"tasks":["t1"],"clbs":40,"delay_ns":100}],
		 "assign":{"t0":0,"t1":1,"t2":0}}`,
		"capacity": `{"n":1,"optimal":false,"latency_ns":1000300,
		 "partitions":[{"index":0,"tasks":["t0","t1","t2"],"clbs":120,"delay_ns":300}],
		 "assign":{"t0":0,"t1":0,"t2":0}}`,
		"missing task":  strings.Replace(strings.Replace(goodAnswer, `,"t2":1`, ``, 1), `"tasks":["t2"]`, `"tasks":[]`, 1),
		"partial bound": strings.Replace(goodAnswer, `"optimal":true`, `"partial":true,"latency_bound_ns":3000000`, 1),
	} {
		if err := testSpec(t, 0).check(decodeAnswer(t, bad)); err == nil {
			t.Errorf("%s: checker accepted a wrong answer", name)
		}
	}
	// An answer claiming optimality must match the pinned optimum.
	if err := testSpec(t, 3).check(decodeAnswer(t, goodAnswer)); err == nil {
		t.Error("checker accepted an optimal answer that contradicts the pinned N")
	}
}

func TestMissBookHitMustRepeatAMiss(t *testing.T) {
	b := newMissBook()
	miss := decodeAnswer(t, goodAnswer)
	miss.Cache = "miss"
	if err := b.observe("k", miss); err != nil {
		t.Fatal(err)
	}
	hit := *miss
	hit.Cache = "hit"
	if err := b.observe("k", &hit); err != nil {
		t.Fatalf("hit equal to its miss rejected: %v", err)
	}
	hit.LatencyNS += 1000
	if err := b.observe("k", &hit); err == nil {
		t.Fatal("hit differing from every miss accepted")
	}
}

func TestIsoCopyIsIsomorphic(t *testing.T) {
	g := treeGraph(6, 40, 100)
	b := base{id: "tree6", g: g, board: "small"}
	a, err := newOp(b, g, "tree6", "ilp", 0)
	if err != nil {
		t.Fatal(err)
	}
	c, err := newOp(b, isoCopy(g, newRand(3), ""), "tree6", "ilp", 0)
	if err != nil {
		t.Fatal(err)
	}
	ka, kb := cacheKeyOf(t, a.body), cacheKeyOf(t, c.body)
	if ka != kb {
		t.Fatal("renamed, reordered copy has another cache key")
	}
	d, err := newOp(b, isoCopy(g, newRand(3), "~x"), "tree6~x", "ilp", 0)
	if err != nil {
		t.Fatal(err)
	}
	if cacheKeyOf(t, d.body) == ka {
		t.Fatal("tagged copy shares the cache key of the untagged structure")
	}
}

func cacheKeyOf(t *testing.T, body []byte) string {
	t.Helper()
	var sr service.SolveRequest
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	req, err := sr.Parse()
	if err != nil {
		t.Fatal(err)
	}
	return req.CacheKey()
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func TestCPUSamples(t *testing.T) {
	cpu := []cpuSample{
		{at: 0, busy: 100, steal: 10, proc: 0},
		{at: time.Second, busy: 190, steal: 20, proc: 100 * time.Millisecond},
		{at: 2 * time.Second, busy: 250, steal: 80, proc: 400 * time.Millisecond},
	}
	for _, c := range []struct {
		from, to time.Duration
		want     float64
	}{
		{0, time.Second, 0.1},
		{time.Second, 2 * time.Second, 0.5},
		{0, 3 * time.Second, 70.0 / 220},
		{time.Second, time.Second, 0},
	} {
		if got := stealShare(cpu, c.from, c.to); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("stealShare(%v, %v) = %v, want %v", c.from, c.to, got, c.want)
		}
	}
	for _, c := range []struct {
		from, to, want time.Duration
	}{
		{0, time.Second, 100 * time.Millisecond},
		{500 * time.Millisecond, 1500 * time.Millisecond, 200 * time.Millisecond},
		{time.Second, 3 * time.Second, 300 * time.Millisecond},
	} {
		if got := procCPUBetween(cpu, c.from, c.to); got != c.want {
			t.Errorf("procCPUBetween(%v, %v) = %v, want %v", c.from, c.to, got, c.want)
		}
	}
	if got := procCPUBetween(nil, 0, time.Second); got != 0 {
		t.Errorf("no samples: %v, want 0", got)
	}
	if got := stealShare(nil, 0, time.Second); got != 0 {
		t.Errorf("no samples: %v, want 0", got)
	}
}
