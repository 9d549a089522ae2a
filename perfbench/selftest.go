package main

import "fmt"

// selftest runs every workload on a scaled-down preload for a fixed
// number of operations, three times with the same seed: twice untraced
// and once traced. All three must pass every correctness gate and
// commit the same carriers with the same deterministic counts; the
// traced run makes the calls client.Submit makes one by one, so this
// also shows that tracing does not change what is committed.
func selftest(o options) int {
	status := 0
	for _, w := range workloads {
		so := o
		so.workload = w.name
		so.smoke = true
		so.rounds = 10
		if w.claims > 0 {
			so.rounds = 3 * w.claims
		}
		var runs []*result
		for _, traced := range []bool{false, false, true} {
			so.trace = traced
			res, err := execute(so, w)
			if err != nil {
				fmt.Printf("FAIL %s: %v\n", w.name, err)
				status = 1
				break
			}
			runs = append(runs, res)
		}
		if len(runs) < 3 {
			continue
		}
		pass := true
		for i, res := range runs {
			if !res.correct {
				fmt.Printf("FAIL %s run %d: %v\n", w.name, i, res.problems)
				pass = false
			}
			if res.digest != runs[0].digest || res.counts != runs[0].counts {
				fmt.Printf("FAIL %s run %d differs from run 0:\n  %s %s\n  %s %s\n",
					w.name, i, res.digest, res.counts, runs[0].digest, runs[0].counts)
				pass = false
			}
		}
		if !pass {
			status = 1
			continue
		}
		fmt.Printf("ok   %s: 3 runs agree, carriers %s…, %s\n", w.name, runs[0].digest[:16], runs[0].counts)
	}
	return status
}
