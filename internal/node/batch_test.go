package node

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"testing"

	"github.com/turbdb/turbdb/internal/derived"
	"github.com/turbdb/turbdb/internal/grid"
	"github.com/turbdb/turbdb/internal/query"
	"github.com/turbdb/turbdb/internal/synth"
)

// unalignedBoxes cut through atoms on every face of a 32³ grid of 8³
// atoms. Each box's halo band, clipped to the box, stays clear of atoms
// that the halo of the whole atom still reaches, so a gather that fetched
// only the clipped band would leave atom assembly short.
var unalignedBoxes = []grid.Box{
	{Lo: grid.Point{X: 11, Y: 5, Z: 13}, Hi: grid.Point{X: 27, Y: 20, Z: 22}},
	{Lo: grid.Point{X: 3, Y: 19, Z: 4}, Hi: grid.Point{X: 13, Y: 30, Z: 29}},
	{Lo: grid.Point{X: 21, Y: 12, Z: 20}, Hi: grid.Point{X: 22, Y: 13, Z: 21}},
}

// inBox filters a code-ordered reference to the points of box.
func inBox(ref []query.ResultPoint, box grid.Box) []query.ResultPoint {
	var out []query.ResultPoint
	for _, p := range ref {
		if box.Contains(p.Coords()) {
			out = append(out, p)
		}
	}
	return out
}

// A multi-member batch — overlapping unaligned boxes, distinct thresholds,
// one member over its limit — answers every in-limit member exactly like
// the brute-force reference, on a cold pass and again from the cache. The
// member over its limit is rejected on every node without disturbing the
// others.
func TestThresholdBatchMatchesBruteForce(t *testing.T) {
	nodes, gen := buildCluster(t, 2, 32, synth.MHD, true, 2)
	const order = 4
	ref := bruteForce(t, gen, derived.Vorticity, 0, order, 0)
	norms := make([]float64, len(ref))
	for i, p := range ref {
		norms[i] = float64(p.Value)
	}
	sort.Float64s(norms)
	quantile := func(f float64) float64 { return norms[int(f*float64(len(norms)-1))] }

	whole := grid.Box{Hi: grid.Point{X: 32, Y: 32, Z: 32}}
	members := []query.Threshold{
		{Box: unalignedBoxes[0], Threshold: quantile(0.5)},
		{Box: unalignedBoxes[1], Threshold: quantile(0.8)},
		// Overlaps both boxes above.
		{Box: grid.Box{Lo: grid.Point{X: 6, Y: 9, Z: 10}, Hi: grid.Point{X: 23, Y: 25, Z: 27}}, Threshold: quantile(0.3)},
		{Box: whole, Threshold: quantile(0.95)},
		// Over its limit on every node.
		{Box: whole, Threshold: quantile(0.1), Limit: 100},
	}
	const overLimit = 4
	for i := range members {
		members[i].Dataset, members[i].Field, members[i].FDOrder = "mhd", derived.Vorticity, order
		if members[i].Limit == 0 {
			members[i].Limit = 1 << 20
		}
	}

	for _, pass := range []string{"cold", "cached"} {
		got := make([][]query.ResultPoint, len(members))
		for _, n := range nodes {
			res, err := n.GetThresholdBatch(context.Background(), nil, members)
			if err != nil {
				t.Fatalf("%s pass: %v", pass, err)
			}
			for i := range members {
				if i == overLimit {
					var tooMany *query.ErrTooManyPoints
					if !errors.As(res.Errs[i], &tooMany) || res.Results[i] != nil {
						t.Fatalf("%s pass, node %d: over-limit member got err %v", pass, n.ID(), res.Errs[i])
					}
					continue
				}
				if res.Errs[i] != nil {
					t.Fatalf("%s pass, node %d, member %d: %v", pass, n.ID(), i, res.Errs[i])
				}
				if fromCache := res.Results[i].FromCache; fromCache != (pass == "cached") {
					t.Errorf("%s pass, node %d, member %d: FromCache = %v", pass, n.ID(), i, fromCache)
				}
				got[i] = append(got[i], res.Results[i].Points...)
			}
		}
		for i, q := range members {
			if i == overLimit {
				continue
			}
			sort.Slice(got[i], func(a, b int) bool { return got[i][a].Code < got[i][b].Code })
			// The reference applies the threshold to the float64 norm, as
			// the node does; filtering the float32 payloads could differ.
			want := inBox(bruteForce(t, gen, derived.Vorticity, 0, order, q.Threshold), q.Box)
			if len(want) == 0 {
				t.Fatalf("member %d: empty reference answer proves nothing", i)
			}
			exactPoints(t, got[i], want, fmt.Sprintf("%s pass, member %d", pass, i))
		}
	}
}
