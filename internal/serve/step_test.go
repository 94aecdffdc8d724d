package serve

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/tensor"
)

// exploreSteps is how many events one seed of TestCollectorExplore plays.
const exploreSteps = 2500

// TestCollectorExplore drives step, the collector's decisions without its
// channels, through seeded random schedules on a fake clock: arrivals with
// and without deadlines, cancellations, ticks (a timer firing at the wake
// time among them), hand-overs whenever one is offered, pass completions in
// any order and quit at any point, over model lives of random MaxBatch and
// slots. It asserts the scheduler's contract:
//
//   - every request gets exactly one outcome;
//   - in-flight passes never exceed slots;
//   - a partial batch is handed over only when no pass is in flight;
//   - no batch exceeds MaxBatch;
//   - nothing is handed over after quit;
//   - no member of a handed-over batch had expired at the sweep that
//     preceded its offer.
//
// So that a step which withholds work cannot pass, every tick must also
// fail exactly the members that have expired, offer the batch whenever the
// hand-over rule allows, admit while the batch has room and wake at the
// earliest remaining deadline. Each seed is a subtest whose failure prints
// the command that replays it.
func TestCollectorExplore(t *testing.T) {
	seeds := 400
	if testing.Short() {
		seeds = 40 // 40 × 2500 = 10⁵ events
	}
	for seed := 1; seed <= seeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			if err := explore(uint64(seed), exploreSteps); err != nil {
				t.Fatalf("%v\nreplay: go test ./internal/serve -run '^TestCollectorExplore$/^seed=%d$'", err, seed)
			}
		})
	}
}

// explore plays steps events of one seed, life after life: each life is a
// fresh step that ends once it has quit and every pass has delivered.
func explore(seed uint64, steps int) error {
	rng := tensor.NewRNG(seed)
	now := time.Unix(1e9, 0)
	for n, life := 0, 1; n < steps; life++ {
		l := &explorer{rng: rng, now: now, st: step{maxBatch: 1 + rng.Intn(5), slots: 1 + rng.Intn(3)}}
		l.a = l.st.report(nil, nil)
		if err := l.run(steps - n); err != nil {
			return fmt.Errorf("life %d (MaxBatch %d, slots %d), event %d: %w", life, l.st.maxBatch, l.st.slots, l.n, err)
		}
		n, now = n+l.n, l.now
	}
	return nil
}

// explored is the explorer's record of one request.
type explored struct {
	p         *pending
	cancel    context.CancelFunc
	arrived   int // event index of the arrival
	cancelled int // event index of the cancellation; -1 while the caller waits
	outcomes  int
}

// explorer is one life: the step under test, its last actions, and the
// explorer's own account of what the step should hold.
type explorer struct {
	rng     *tensor.RNG
	st      step
	a       actions
	now     time.Time
	n       int          // events played
	reqs    []*explored  // by seed, which is the arrival number
	batch   []*pending   // the forming batch, as the contract has it
	passes  [][]*pending // handed over, not yet done
	quit    bool
	tickN   int       // event index of the last tick
	tickNow time.Time // and the time it swept at
}

func (l *explorer) run(budget int) error {
	l.tickN = -1
	for ; !l.quit || len(l.passes) > 0; l.n++ {
		var err error
		switch r := l.rng.Intn(200); {
		case !l.quit && (r == 0 || l.n >= budget):
			err = l.quitStep()
		case r < 60:
			if l.a.admit {
				err = l.arrive()
			}
		case r < 100:
			err = l.tick()
		case r < 110:
			if !l.a.wake.IsZero() { // the shell's timer fires
				if l.now.Before(l.a.wake) {
					l.now = l.a.wake
				}
				err = l.tick()
			}
		case r < 140:
			if l.a.offer {
				err = l.handOver()
			}
		case r < 170:
			if len(l.passes) > 0 {
				err = l.passDone()
			}
		case r < 180:
			l.cancelOne()
		default:
			l.now = l.now.Add(time.Duration(l.rng.Intn(3000)) * time.Microsecond)
		}
		if err != nil {
			return err
		}
	}
	for _, r := range l.reqs {
		if r.outcomes != 1 {
			return fmt.Errorf("request %d ended its life with %d outcomes", r.p.seed, r.outcomes)
		}
	}
	return nil
}

// expired is the contract's expiry: a deadline passed at now or a caller gone.
func (l *explorer) expired(p *pending, now time.Time) bool {
	return l.reqs[p.seed].cancelled >= 0 || !p.deadline.IsZero() && now.After(p.deadline)
}

// answered checks that the step failed exactly want with err, and counts
// the outcomes.
func (l *explorer) answered(a actions, want []*pending, err error) error {
	if len(a.fail) != len(want) {
		return fmt.Errorf("failed %d requests, want %d", len(a.fail), len(want))
	}
	for i, p := range a.fail {
		if p != want[i] {
			return fmt.Errorf("failed request %d, want %d", p.seed, want[i].seed)
		}
		if a.err != err {
			return fmt.Errorf("failed request %d with %v, want %v", p.seed, a.err, err)
		}
		if l.reqs[p.seed].outcomes++; l.reqs[p.seed].outcomes > 1 {
			return fmt.Errorf("request %d got a second outcome", p.seed)
		}
	}
	return nil
}

func (l *explorer) arrive() error {
	var deadline time.Time
	if l.rng.Intn(2) == 0 {
		deadline = l.now.Add(time.Duration(l.rng.Intn(5000)-500) * time.Microsecond)
	}
	ctx, cancel := context.WithCancel(context.Background())
	p := &pending{seed: uint64(len(l.reqs)), deadline: deadline, ctx: ctx}
	l.reqs = append(l.reqs, &explored{p: p, cancel: cancel, arrived: l.n, cancelled: -1})
	l.a = l.st.arrive(p)
	if l.quit {
		return l.answered(l.a, []*pending{p}, ErrClosed)
	}
	l.batch = append(l.batch, p)
	return l.answered(l.a, nil, nil)
}

func (l *explorer) tick() error {
	l.a = l.st.tick(l.now)
	l.tickN, l.tickNow = l.n, l.now
	var gone, kept []*pending
	var wake time.Time
	for _, p := range l.batch {
		if l.expired(p, l.now) {
			gone = append(gone, p)
			continue
		}
		kept = append(kept, p)
		if !p.deadline.IsZero() && (wake.IsZero() || p.deadline.Before(wake)) {
			wake = p.deadline
		}
	}
	if err := l.answered(l.a, gone, ErrExpired); err != nil {
		return fmt.Errorf("tick: %w", err)
	}
	l.batch = kept
	if l.quit {
		return nil
	}
	full := len(kept) == l.st.maxBatch
	switch {
	case len(kept) > 0 && (len(l.passes) == 0 || full && len(l.passes) < l.st.slots) && !l.a.offer:
		return fmt.Errorf("tick withholds a batch of %d with %d passes in flight", len(kept), len(l.passes))
	case !full && !l.a.admit:
		return fmt.Errorf("tick stops admitting into a batch of %d", len(kept))
	case !l.a.wake.Equal(wake):
		return fmt.Errorf("tick wakes at %v, want %v", l.a.wake, wake)
	}
	return nil
}

func (l *explorer) handOver() error {
	batch := append([]*pending(nil), l.st.batch...)
	switch {
	case l.quit:
		return fmt.Errorf("handed over a batch of %d after quit", len(batch))
	case len(batch) > l.st.maxBatch:
		return fmt.Errorf("handed over a batch of %d > MaxBatch", len(batch))
	case len(batch) < l.st.maxBatch && len(l.passes) > 0:
		return fmt.Errorf("handed over a partial batch of %d with %d passes in flight", len(batch), len(l.passes))
	case len(l.passes) == l.st.slots:
		return fmt.Errorf("handed over a pass beyond the %d slots", l.st.slots)
	case len(batch) != len(l.batch):
		return fmt.Errorf("handed over %d requests, want the batch of %d", len(batch), len(l.batch))
	}
	for i, p := range batch {
		r := l.reqs[p.seed]
		switch {
		case p != l.batch[i]:
			return fmt.Errorf("handed over request %d, want %d", p.seed, l.batch[i].seed)
		case r.outcomes > 0:
			return fmt.Errorf("handed over request %d, already answered", p.seed)
		case r.arrived > l.tickN || r.cancelled >= 0 && r.cancelled < l.tickN || !p.deadline.IsZero() && l.tickNow.After(p.deadline):
			return fmt.Errorf("handed over request %d, not live at the sweep before the offer", p.seed)
		}
	}
	l.a = l.st.handedOver()
	l.passes = append(l.passes, batch)
	l.batch = nil
	return l.answered(l.a, nil, nil)
}

// passDone completes a random pass in flight and delivers its members.
func (l *explorer) passDone() error {
	i := l.rng.Intn(len(l.passes))
	for _, p := range l.passes[i] {
		if l.reqs[p.seed].outcomes++; l.reqs[p.seed].outcomes > 1 {
			return fmt.Errorf("request %d delivered after another outcome", p.seed)
		}
	}
	l.passes = append(l.passes[:i], l.passes[i+1:]...)
	l.a = l.st.passDone()
	return l.answered(l.a, nil, nil)
}

func (l *explorer) quitStep() error {
	l.quit = true
	l.a = l.st.quit()
	batch := l.batch
	l.batch = nil
	return l.answered(l.a, batch, ErrClosed)
}

// cancelOne makes a random caller give up, if it still waits.
func (l *explorer) cancelOne() {
	if len(l.reqs) == 0 {
		return
	}
	if r := l.reqs[l.rng.Intn(len(l.reqs))]; r.outcomes == 0 && r.cancelled < 0 {
		r.cancel()
		r.cancelled = l.n
	}
}
