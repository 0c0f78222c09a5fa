package sim

// FreeList recycles pointers to T for model-layer state that is pooled
// per scheduling site (CPU jobs, web requests, DB calls, split-driver
// forwards). Put zeroes the struct before parking it, so stale
// callbacks and context arguments can never leak through the pool, and
// callers re-set every field they need after Get. Steady state neither
// Get nor Put allocates.
type FreeList[T any] struct {
	items []*T
}

// Get returns a zeroed *T, recycled when one is parked.
func (f *FreeList[T]) Get() *T {
	if n := len(f.items); n > 0 {
		x := f.items[n-1]
		f.items[n-1] = nil
		f.items = f.items[:n-1]
		return x
	}
	return new(T)
}

// Put zeroes x and parks it for reuse. x must not be used afterwards.
func (f *FreeList[T]) Put(x *T) {
	var zero T
	*x = zero
	f.items = append(f.items, x)
}

// PutReset parks x after the caller has already reset its state.
// Unlike Put it does not zero x, so a caller that owns amortized
// buffers inside T (slices trimmed to length zero) can keep their
// capacity across recycles. The caller carries Put's obligation: every
// pointer and callback field must be cleared before parking.
func (f *FreeList[T]) PutReset(x *T) {
	f.items = append(f.items, x)
}

// Len reports how many items are parked.
func (f *FreeList[T]) Len() int { return len(f.items) }
