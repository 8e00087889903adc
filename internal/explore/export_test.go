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

// AtlasFrontier is the atlas's walk of ℰ from node from, avoiding e: its
// members in order, each with its tree path from from.
func AtlasFrontier(a *Atlas, from int32, e model.Event) ([]int32, []model.Schedule) {
	w := a.frontier(from, e)
	paths := make([]model.Schedule, len(w.order))
	for i, v := range w.order {
		paths[i] = w.path(a, v)
	}
	return w.order, paths
}

// The direct routes of the three Lemma 3 front ends, which the public
// functions take when no atlas covers C.
var (
	DiamondDirect = diamondDirect
	Figure3Direct = figure3Direct
	CensusDirect  = censusDirect
)
