// Package other shows the channel rule is scoped: a blocking send under
// a lock outside serve-named packages is not flagged (the
// return-with-lock rule still applies everywhere).
package other

import "sync"

type Box struct {
	mu sync.Mutex
	ch chan int
}

// SendUnderLock would fire in a serve package; here it is allowed.
func (b *Box) SendUnderLock(v int) {
	b.mu.Lock()
	b.ch <- v
	b.mu.Unlock()
}

// Leak still fires everywhere.
func (b *Box) Leak() {
	b.mu.Lock() // want "a path returns with b.mu held"
}
