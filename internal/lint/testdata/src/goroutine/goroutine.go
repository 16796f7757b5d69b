// Package goroutine exercises the goroutine check: the DES is
// single-threaded, so go statements and channel operations are hazards.
package goroutine

func spawn(f func()) {
	go f() // want:goroutine
}

func channels(ch chan int) int {
	ch <- 1   // want:goroutine
	v := <-ch // want:goroutine
	select {  // want:goroutine
	default:
	}
	for x := range ch { // want:goroutine
		v += x
	}
	return v
}

// plain callbacks are the sanctioned alternative: no finding.
func callback(after func(func()), f func()) {
	after(f)
}

// A scoped suppression with a reason quiets the check on its line (and the
// line directly below, for the comment-above form). A bare go statement
// outside that window still fires, so the allow cannot leak across the
// function.
func pool(w func(int), f func()) {
	go w(0) //spvet:allow goroutine -- a reasoned, line-scoped exception

	go f() // want:goroutine
}
