package mapdb

// Empty reports whether nothing changed between the generations.
func (d *GenDiff) Empty() bool {
	return len(d.Added) == 0 && len(d.Removed) == 0 && len(d.OwnerChanges) == 0 &&
		len(d.OwnersSet) == 0 && len(d.OwnersRemoved) == 0 && len(d.Relabeled) == 0
}
