package client_test

import (
	"context"
	"sync"
	"testing"

	prefsql "repro"
	"repro/client"
	"repro/internal/server"
)

// TestDialContextCancelAfterReturn is the `defer cancel()` pattern: the
// caller cancels the dial context right after DialContext returned a
// connection. The connection must stay usable — the cancellation watcher
// has to be gone by then, not racing to put a past deadline on the socket
// (which showed as an `i/o timeout` on about one first read in a
// thousand). Several dialers run at once so that a watcher goroutine is
// regularly still waiting for a processor when its dial returns, which is
// the window the race needs.
func TestDialContextCancelAfterReturn(t *testing.T) {
	db := prefsql.Open()
	srv := server.New(db.Internal(), server.Options{CacheSize: 4})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const dialers, rounds = 8, 400
	var wg sync.WaitGroup
	for d := 0; d < dialers; d++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				ctx, cancel := context.WithCancel(context.Background())
				c, err := client.DialContext(ctx, addr.String())
				cancel()
				if err != nil {
					t.Errorf("round %d: dial: %v", i, err)
					return
				}
				_, err = c.Query("SELECT 1")
				c.Close()
				if err != nil {
					t.Errorf("round %d: query on a connection whose dial context was cancelled after the dial returned: %v", i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
