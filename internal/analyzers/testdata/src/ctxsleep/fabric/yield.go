// Package fabric is a ctxsleep fixture: the real fabric package waits on
// condition variables and contexts, so it is in scope like every other
// package and a bare sleep there is flagged.
package fabric

import "time"

func yield() {
	time.Sleep(50 * time.Microsecond) // want `bare time\.Sleep ignores cancellation`
}
