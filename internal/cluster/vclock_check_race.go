//go:build race

package cluster

import (
	"fmt"
	"runtime"
)

// The calling contract (vclock.go) checked under the race detector: a
// blocking call that finds the run token held must come from the
// goroutine the token was last granted to. The check costs a
// runtime.Stack traceback per grant and per block, so only race builds
// pay it; vclock_nocheck.go compiles it away everywhere else. So does
// the owned-context check at the end of this file.

// tokenCheck records which goroutine holds the run token.
type tokenCheck struct {
	holder uint64 // goroutine id of the last grant's receiver; 0 while a grant is in flight
}

// noteGrantLocked clears the record as the token is sent: until the
// receiver notes itself, no goroutine may block while the token is held.
func (v *vsched) noteGrantLocked() { v.chk.holder = 0 }

// noteGranted records the calling goroutine as the token holder; called
// right after every participant's grant receive.
func (v *vsched) noteGranted() {
	gid := goid()
	v.mu.Lock()
	v.chk.holder = gid
	v.mu.Unlock()
}

// checkBlockLocked panics when op is called with the token held by a
// goroutine other than the caller: an outsider overlapping a running
// participant. It releases v.mu before panicking so the schedule stays
// usable by a caller that recovers.
func (v *vsched) checkBlockLocked(op string) {
	if !v.running {
		return
	}
	if gid, holder := goid(), v.chk.holder; gid != holder {
		v.mu.Unlock()
		panic(fmt.Sprintf("cluster: %s on goroutine %d while goroutine %d holds the virtual clock's run token: "+
			"a goroutine outside the schedule that may overlap running participants must bracket its blocking calls with Clock.Enter/Exit",
			op, gid, holder))
	}
}

// goid parses the current goroutine's id from its runtime.Stack header
// ("goroutine N [...]").
func goid() uint64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	const prefix = len("goroutine ")
	var id uint64
	for _, c := range buf[prefix:n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}

// checkOwnedLocked panics when a sweep that skips the owned groups finds
// one whose context has ended: an owned context ends only through its
// cancel func, which counts, so an uncounted end would leave its
// waiters parked while model time moves on.
func (v *vsched) checkOwnedLocked() {
	for _, g := range v.owned {
		select {
		case <-g.done:
			v.mu.Unlock()
			panic("cluster: a context owned by the virtual clock ended without its cancel func; " +
				"the sweep would have skipped its waiters")
		default:
		}
	}
}
