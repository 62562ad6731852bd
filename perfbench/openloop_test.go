package main

import (
	"context"
	"encoding/json"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"meg/internal/serve"
	"meg/internal/spec"
)

// stallRunner answers every spec at once, except the stallOn-th call,
// which first sleeps for stall.
type stallRunner struct {
	calls   atomic.Int32
	stallOn int32
	stall   time.Duration
}

func (r *stallRunner) Execute(_ context.Context, s spec.Spec, _ func(serve.Event)) (*serve.Result, error) {
	if r.calls.Add(1) == r.stallOn {
		time.Sleep(r.stall)
	}
	h, err := s.Hash()
	return &serve.Result{Hash: h}, err
}

func TestOpenLoopCountsARunnerStall(t *testing.T) {
	const (
		n        = 20
		interval = 10 * time.Millisecond
		stall    = 300 * time.Millisecond
		stalled  = 4 // the fifth job, and the fifth Execute call
	)
	fake := &stallRunner{stallOn: stalled + 1, stall: stall}
	srv, err := newMixServer(64, func(serve.Runner) serve.Runner { return fake })
	if err != nil {
		t.Fatal(err)
	}
	defer srv.close()
	loop := openLoop{due: evenly(n, interval), conns: mixConns, timeout: 10 * time.Second,
		send: func(i int) (<-chan struct{}, error) {
			j, _, err := srv.submit([]byte(fmt.Sprintf(mixShapes[0], i+1)))
			if err != nil {
				return nil, err
			}
			return j.Done(), nil
		}}
	lr := loop.run()
	for i, err := range lr.errs {
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
	// The stalled job cannot finish before its due time plus the stall,
	// and the single worker runs the jobs behind it only afterwards, so
	// each of them waited at least until then, counted from its due time.
	stallEnd := time.Duration(stalled)*interval + stall
	for k := stalled; k < n; k++ {
		due := time.Duration(k) * interval
		if due >= stallEnd {
			break
		}
		if got, floor := lr.latMs[k], ms(stallEnd-due); got < floor {
			t.Errorf("job %d latency %.1f ms hides the stall (want ≥ %.1f ms)", k, got, floor)
		}
	}
	// The generator itself was never blocked: the stall is in the server.
	if late := lr.lateMaxMs(); late >= ms(stall)/2 {
		t.Errorf("generator ran %.1f ms late behind a server-side stall", late)
	}
}

func TestOpenLoopCountsAGeneratorStall(t *testing.T) {
	const (
		interval = 10 * time.Millisecond
		stall    = 200 * time.Millisecond
	)
	closed := make(chan struct{})
	close(closed)
	loop := openLoop{due: evenly(10, interval), conns: 1, timeout: time.Second,
		send: func(i int) (<-chan struct{}, error) {
			if i == 3 {
				time.Sleep(stall)
			}
			return closed, nil
		}}
	lr := loop.run()
	// Request 4 is due at 40 ms but cannot be sent before request 3,
	// sent at 30 ms or later, returns 200 ms after that.
	floor := ms(3*interval + stall - 4*interval)
	if got := lr.lateMaxMs(); got < floor {
		t.Errorf("gen_late_ms_max %.1f ms misses the %.0f ms stall", got, ms(stall))
	}
	if lr.latMs[4] < floor {
		t.Errorf("request 4 latency %.1f ms hides the generator stall (want ≥ %.1f)", lr.latMs[4], floor)
	}
}

// evenly returns n due times, interval apart.
func evenly(n int, interval time.Duration) []time.Duration {
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(i) * interval
	}
	return due
}

func TestCheckDirect(t *testing.T) {
	body := []byte(fmt.Sprintf(mixShapes[1], 5))
	s, err := spec.Parse(body)
	if err != nil {
		t.Fatal(err)
	}
	res, err := (&serve.Executor{}).Execute(context.Background(), s, nil)
	if err != nil {
		t.Fatal(err)
	}
	served, _ := json.Marshal(res)
	if err := checkDirect(body, served); err != nil {
		t.Fatalf("a served result fails the direct check: %v", err)
	}
	res.Trials[0].Rounds++
	tampered, _ := json.Marshal(res)
	if checkDirect(body, tampered) == nil {
		t.Error("a tampered result passes the direct check")
	}
}

func TestMixSchedule(t *testing.T) {
	const count = 300
	a, err := mixSchedule(9, count)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := mixSchedule(9, count)
	c, _ := mixSchedule(10, count)
	uniq := map[string]bool{}
	shapes := make([]int, len(mixShapes))
	same, shared := 0, 0
	for i := range a {
		if string(a[i].body) != string(b[i].body) || a[i].hash != b[i].hash || a[i].due != b[i].due {
			t.Fatalf("submission %d differs between two schedules of one seed", i)
		}
		if string(a[i].body) == string(c[i].body) {
			same++
		}
		if !uniq[a[i].hash] {
			uniq[a[i].hash] = true
			for k, sh := range mixShapes {
				if string(a[i].body) == fmt.Sprintf(sh, seedOf(t, a[i].body)) {
					shapes[k]++
				}
			}
		}
		if i == 0 {
			continue
		}
		// Only a resend sent right behind its spec shares that spec's slot.
		switch d := a[i].due - a[i-1].due; {
		case d == 0 && a[i].hash == a[i-1].hash:
			shared++
		case d != mixInterval:
			t.Fatalf("submission %d due %v after the one before it", i, d)
		}
	}
	if want := count / mixBlock; shared != want {
		t.Errorf("%d resends share their spec's slot, want %d", shared, want)
	}
	if want := count / mixBlock * mixBlockNew; len(uniq) != want {
		t.Errorf("%d new specs in %d submissions, want %d", len(uniq), count, want)
	}
	for k, n := range shapes {
		if n != len(uniq)/len(mixShapes) {
			t.Errorf("shape %d used %d times, want %d", k, n, len(uniq)/len(mixShapes))
		}
	}
	if same > 0 {
		t.Errorf("%d submissions identical across two seeds", same)
	}
}

func seedOf(t *testing.T, body []byte) uint64 {
	t.Helper()
	var v struct{ Seed uint64 }
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	return v.Seed
}
