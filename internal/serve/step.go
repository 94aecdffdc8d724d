package serve

import "time"

// step is the collector's decision state with the channels taken out: the
// forming batch, the passes in flight and the hand-over rule. The shell,
// Model.collect, turns its channels, timer and quit into step's five events
// and does what the returned actions say. step does no channel operation,
// starts no goroutine and reads no clock (tick is handed the time), so it is
// the one place the scheduling rules live and a test can drive it through
// any schedule.
type step struct {
	maxBatch, slots int
	batch           []*pending // the forming batch, in arrival order
	inflight        int        // passes handed over and not yet done
	swept           bool       // nothing joined the batch since the last tick
	stopped         bool       // quit has come
	failed          []*pending // reused backing of actions.fail
}

// actions is what step asks of the shell after an event.
type actions struct {
	admit bool       // take arrivals from the queue
	offer bool       // hand the batch over if a dispatcher takes it
	wake  time.Time  // tick again then: the earliest member deadline (zero: none)
	fail  []*pending // answer these with err now; valid until the next event
	err   error
}

// arrive takes a queued request into the batch, or refuses it after quit.
func (s *step) arrive(p *pending) actions {
	if s.stopped {
		s.failed = append(s.failed[:0], p)
		return s.report(s.failed, ErrClosed)
	}
	if s.batch == nil {
		s.batch = make([]*pending, 0, s.maxBatch)
	}
	s.batch = append(s.batch, p)
	s.swept = false
	return s.report(nil, nil)
}

// handedOver records that a dispatcher took the batch.
func (s *step) handedOver() actions {
	s.batch = nil
	s.inflight++
	return s.report(nil, nil)
}

// passDone records that a pass has delivered.
func (s *step) passDone() actions {
	s.inflight--
	return s.report(nil, nil)
}

// tick sweeps the batch at now, failing with ErrExpired every member whose
// deadline has passed or whose caller has gone. Only a swept batch is
// offered.
func (s *step) tick(now time.Time) actions {
	s.failed = s.failed[:0]
	kept := s.batch[:0]
	for _, p := range s.batch {
		if p.expired(now) {
			s.failed = append(s.failed, p)
		} else {
			kept = append(kept, p)
		}
	}
	s.batch, s.swept = kept, true
	return s.report(s.failed, ErrExpired)
}

// quit fails the batch with ErrClosed; from now on nothing is handed over
// and every arrival is refused, while passes in flight may still end.
func (s *step) quit() actions {
	batch := s.batch
	s.batch, s.stopped = nil, true
	return s.report(batch, ErrClosed)
}

// report states the actions of the current state. The hand-over rule: a
// swept batch is offered when no pass is in flight, or when it is full and
// fewer than slots are — so a partial batch waits for the compute stage to
// be idle and grows meanwhile, and only a backlog of full batches runs
// passes side by side. After quit, the queue is admitted only to be refused.
func (s *step) report(fail []*pending, err error) actions {
	a := actions{admit: s.stopped || len(s.batch) < s.maxBatch, fail: fail, err: err}
	if s.stopped {
		return a
	}
	full := len(s.batch) == s.maxBatch
	a.offer = s.swept && len(s.batch) > 0 && (s.inflight == 0 || full && s.inflight < s.slots)
	for _, p := range s.batch {
		if !p.deadline.IsZero() && (a.wake.IsZero() || p.deadline.Before(a.wake)) {
			a.wake = p.deadline
		}
	}
	return a
}
