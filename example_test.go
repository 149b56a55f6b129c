package tributarydelta_test

import (
	"context"
	"fmt"

	td "tributarydelta"
)

// The simplest possible use of the Query API: open a Count query over a
// lossless field with pure tree aggregation. With no message loss the
// answer is exact.
func ExampleOpen() {
	dep := td.NewSyntheticDeployment(1, 200)
	session, err := td.Open(dep, td.Count(), td.WithScheme(td.SchemeTAG), td.WithSeed(1))
	if err != nil {
		panic(err)
	}
	defer session.Close()
	res := session.RunEpoch(0)
	fmt.Println(int(res.Answer) == session.Sensors())
	// Output: true
}

// A QuerySet advances several queries over one deployment in lock-step:
// every member sees the same loss realization each epoch, so their
// contributing sets coincide round by round.
func ExampleDeployment_NewQuerySet() {
	dep := td.NewSyntheticDeployment(2, 200)
	dep.SetGlobalLoss(0.25)
	set := dep.NewQuerySet(2)
	defer set.Close()
	if _, err := td.Open(dep, td.Count(), td.InSet(set)); err != nil {
		panic(err)
	}
	if _, err := td.Open(dep, td.Sum(func(_, node int) float64 { return 1 }), td.InSet(set)); err != nil {
		panic(err)
	}
	agree := true
	for _, round := range set.Run(0, 5) {
		cnt := round.Results[0].(td.Result[float64])
		sum := round.Results[1].(td.Result[float64])
		agree = agree && cnt.TrueContrib == sum.TrueContrib
	}
	fmt.Println(agree)
	// Output: true
}

// Stream delivers rounds over a channel with context cancellation: the
// consumer paces the producer, and closing the session ends the stream
// cleanly.
func ExampleSession_Stream() {
	dep := td.NewSyntheticDeployment(3, 150)
	session, err := td.Open(dep, td.Count(), td.WithScheme(td.SchemeTAG), td.WithSeed(3))
	if err != nil {
		panic(err)
	}
	defer session.Close()
	epochs := 0
	for res := range session.Stream(context.Background(), 0, 3) {
		if res.Epoch == epochs {
			epochs++
		}
	}
	fmt.Println(epochs)
	// Output: 3
}

// Quantiles answers rank queries: tributaries carry mergeable summaries
// under a precision gradient, the delta a duplicate-insensitive sample.
// Lossless and pure-tree, the summary covers every sensor exactly.
func ExampleQuantiles() {
	dep := td.NewSyntheticDeployment(4, 200)
	session, err := td.Open(dep, td.Quantiles(func(_, node int) float64 { return float64(node) }),
		td.WithScheme(td.SchemeTAG), td.WithSeed(4), td.WithEpsilon(0.05))
	if err != nil {
		panic(err)
	}
	defer session.Close()
	res := session.RunEpoch(0)
	fmt.Println(int(res.Answer.N) == session.Sensors())
	fmt.Println(res.Answer.Eps <= 0.05)
	// Output:
	// true
	// true
}

// Count under pure tree aggregation over a lossless field is exact: every
// sensor is counted once.
func ExampleOpen_count() {
	dep := td.NewSyntheticDeployment(1, 200)
	session, err := td.Open(dep, td.Count(), td.WithScheme(td.SchemeTAG), td.WithSeed(1))
	if err != nil {
		panic(err)
	}
	res := session.RunEpoch(0)
	fmt.Println(int(res.Answer) == session.Sensors())
	// Output: true
}

// Min is exact even over multi-path routing — idempotent aggregates incur
// no approximation error (§5 of the paper).
func ExampleOpen_min() {
	dep := td.NewSyntheticDeployment(2, 150)
	dep.SetGlobalLoss(0) // lossless: every reading is accounted for
	session, err := td.Open(dep, td.Min(func(_, node int) float64 { return float64(100 + node) }),
		td.WithScheme(td.SchemeSD), td.WithSeed(2))
	if err != nil {
		panic(err)
	}
	res := session.RunEpoch(0)
	fmt.Println(res.Answer == session.ExactAnswer(0))
	// Output: true
}

// A Pool hosts many independent deployments and advances them concurrently
// under a shared worker budget — the multi-tenant shape cmd/tdserve exposes
// over HTTP.
func ExamplePool() {
	pool := td.NewPool(2)
	defer pool.Close()
	for i := 1; i <= 3; i++ {
		dep := td.NewSyntheticDeployment(uint64(i), 150)
		dep.SetGlobalLoss(0.2)
		s, err := td.Open(dep, td.Count(), td.WithScheme(td.SchemeTD), td.WithSeed(uint64(i)))
		if err != nil {
			panic(err)
		}
		if err := pool.Add(fmt.Sprintf("site-%d", i), s); err != nil {
			panic(err)
		}
	}
	results := pool.RunEpochs(4) // 3 deployments × 4 epochs, concurrently
	for _, id := range pool.IDs() {
		status, _ := pool.Status(id)
		fmt.Println(id, status.Epochs, len(results[id]))
	}
	// Output:
	// site-1 4 4
	// site-2 4 4
	// site-3 4 4
}

// A lossless tree average of a constant signal is exact.
func ExampleOpen_average() {
	dep := td.NewSyntheticDeployment(4, 150)
	session, err := td.Open(dep, td.Average(func(_, node int) float64 { return 21.5 }),
		td.WithScheme(td.SchemeTAG), td.WithSeed(4))
	if err != nil {
		panic(err)
	}
	fmt.Println(session.RunEpoch(0).Answer)
	// Output: 21.5
}

// The bottom-k sample fills to its capacity whenever at least k readings
// contribute, and supports order statistics such as the median.
func ExampleOpen_sample() {
	dep := td.NewSyntheticDeployment(6, 150)
	session, err := td.Open(dep, td.Sample(25, func(_, node int) float64 { return float64(node) }),
		td.WithScheme(td.SchemeTAG), td.WithSeed(6))
	if err != nil {
		panic(err)
	}
	res := session.RunEpoch(0)
	fmt.Println(res.Answer.Len() == 25)
	// Output: true
}

// Tributary-Delta adapts: under loss the delta region grows until the
// contributing fraction clears the 90% threshold.
func ExampleOpen_sum() {
	dep := td.NewSyntheticDeployment(3, 300)
	dep.SetGlobalLoss(0.3)
	session, err := td.Open(dep, td.Sum(func(_, node int) float64 { return 1 }),
		td.WithScheme(td.SchemeTD), td.WithSeed(3))
	if err != nil {
		panic(err)
	}
	small := session.RunEpoch(0).DeltaSize
	session.Run(1, 120) // let adaptation work
	grown := session.DeltaSize()
	fmt.Println(grown > small)
	// Output: true
}
