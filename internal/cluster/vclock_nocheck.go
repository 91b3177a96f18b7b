//go:build !race

package cluster

// Outside race builds the calling-contract and owned-context checks
// (vclock_check_race.go) are empty and inline away.

type tokenCheck struct{}

func (v *vsched) noteGrantLocked()        {}
func (v *vsched) noteGranted()            {}
func (v *vsched) checkBlockLocked(string) {}
func (v *vsched) checkOwnedLocked()       {}
