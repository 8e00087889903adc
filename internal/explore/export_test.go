package explore

import "github.com/flpsim/flp/internal/model"

// AttachedAtlases returns how many atlases Warm has attached to vc.
func AttachedAtlases(vc *Cache) int {
	if cur := vc.atlases.Load(); cur != nil {
		return len(*cur)
	}
	return 0
}

// CheckRoot is one root of CheckPartialCorrectness, walked with opt as
// given: the level pool's share of the check when opt.Workers > 1.
func CheckRoot(pr model.Protocol, in model.Inputs, opt Options) (complete bool) {
	return checkRoot(pr, in, model.MustInitial(pr, in), opt).complete
}
