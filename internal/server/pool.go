package server

import "sync"

// Pool lends the storage of finished servers to the machines built next.
// A caller that runs machine after machine — a sweep, a capacity search,
// a fleet run's probes and machines — builds each with New and gives it
// back with Put once its Run has returned and its Samples have been read.
// The pool keeps every server given back, so callers that hold at most W
// machines at once build at most W from nothing, each at the largest
// machine it has run. Which server a build draws depends on the order
// holders give them back, never what a machine reports: a machine built
// in another's storage runs exactly as New's.
//
// A Pool is safe for concurrent use. Its zero value is empty and ready,
// and a nil *Pool lends and keeps nothing.
type Pool struct {
	mu sync.Mutex
	// idle is the server given back last; each links to the one given
	// back before it (Server.nextIdle).
	idle *Server
}

// New builds the machine New(cfg) builds, in the storage of the server
// given back last, or from nothing when the pool holds none. The server
// it builds in is the pool's no longer, whatever New returns.
func (p *Pool) New(cfg Config) (*Server, error) {
	var prev *Server
	if p != nil {
		p.mu.Lock()
		if prev = p.idle; prev != nil {
			p.idle, prev.nextIdle = prev.nextIdle, nil
		}
		p.mu.Unlock()
	}
	return newFrom(prev, cfg)
}

// Put gives s back for a later New to build in. s's Run has returned and
// its Samples have been read: the caller does not use s again. Put(nil)
// keeps nothing.
func (p *Pool) Put(s *Server) {
	if p == nil || s == nil {
		return
	}
	p.mu.Lock()
	s.nextIdle, p.idle = p.idle, s
	p.mu.Unlock()
}
