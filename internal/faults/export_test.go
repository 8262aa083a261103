package faults

// Faults returns how many write-side faults have been injected so far.
func (i *Injector) Faults() int64 {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.faults
}
