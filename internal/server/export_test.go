package server

// SetFrameHook installs a hook that runs before every post-handshake
// frame is dispatched and returns the function restoring the previous
// one.
func SetFrameHook(h func(typ byte)) (restore func()) {
	prev := frameHook.Swap(&h)
	return func() { frameHook.Store(prev) }
}
