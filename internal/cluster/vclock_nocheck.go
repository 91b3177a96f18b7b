//go:build !race

package cluster

// Outside race builds the calling-contract check (vclock_check_race.go)
// is empty and inlines away.

type tokenCheck struct{}

func (v *vsched) noteGrantLocked()        {}
func (v *vsched) noteGranted()            {}
func (v *vsched) checkBlockLocked(string) {}
