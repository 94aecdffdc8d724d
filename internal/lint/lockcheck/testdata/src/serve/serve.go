// Package serve is a fixture for both lockcheck rules; the
// blocking-channel rule only applies here because the package is named
// serve.
package serve

import (
	"errors"
	"sync"
)

var errOops = errors.New("oops")

type Server struct {
	mu    sync.Mutex
	rw    sync.RWMutex
	queue chan int
	n     int
}

// ReturnsLocked forgets the unlock on the error path.
func (s *Server) ReturnsLocked(bad bool) error {
	s.mu.Lock()
	if bad {
		return errOops // want "a path returns with s.mu held"
	}
	s.mu.Unlock()
	return nil
}

// ReadLeak leaks a read lock.
func (s *Server) ReadLeak() int {
	s.rw.RLock()
	return s.n // want "a path returns with s.rw held"
}

// DeferOK is the canonical safe shape.
func (s *Server) DeferOK() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// BranchesOK unlocks explicitly on every path.
func (s *Server) BranchesOK(bad bool) error {
	s.mu.Lock()
	if bad {
		s.mu.Unlock()
		return errOops
	}
	s.n++
	s.mu.Unlock()
	return nil
}

// CondDefer registers the deferred unlock only on the returning path.
func (s *Server) CondDefer(bad bool) {
	s.mu.Lock()
	if bad {
		defer s.mu.Unlock()
		return
	}
	s.mu.Unlock()
}

// BlockingSend sends on the queue with the lock held.
func (s *Server) BlockingSend(v int) {
	s.mu.Lock()
	s.queue <- v // want "blocking channel operation while holding s.mu"
	s.mu.Unlock()
}

// BlockingRecv receives with the lock held through a deferred unlock:
// the lock is still held while the receive blocks.
func (s *Server) BlockingRecv() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return <-s.queue // want "blocking channel operation while holding s.mu"
}

// NonBlockingSend drains opportunistically: a select with a default
// never blocks, so holding the lock is fine.
func (s *Server) NonBlockingSend(v int) {
	s.mu.Lock()
	select {
	case s.queue <- v:
	default:
	}
	s.mu.Unlock()
}

// SendAfterUnlock is the fixed shape of BlockingSend.
func (s *Server) SendAfterUnlock(v int) {
	s.mu.Lock()
	s.n++
	s.mu.Unlock()
	s.queue <- v
}
