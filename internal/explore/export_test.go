package explore

// AttachedAtlases returns how many atlases Warm has attached to vc.
func AttachedAtlases(vc *Cache) int {
	if cur := vc.atlases.Load(); cur != nil {
		return len(*cur)
	}
	return 0
}
