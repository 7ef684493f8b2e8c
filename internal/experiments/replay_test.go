package experiments

import (
	"testing"

	"mlckpt/internal/core"
	"mlckpt/internal/failure"
	"mlckpt/internal/stats"
)

// replayTrace samples the canonical scenario's failures (16-12-8-4 at the
// scale Algorithm 1 solves for Te = 3M core-days) over horizon seconds.
func replayTrace(t *testing.T, horizon float64) []failure.Event {
	t.Helper()
	p := EvalScenario(3e6, "16-12-8-4").Params()
	opt, err := core.Optimize(p, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return failure.Trace(p.Rates, opt.N, horizon, failure.Exponential, 0, stats.NewRNG(7))
}

// TestReplayRenderPinned pins the -replay listing byte for byte: the
// summary rows, one line per failure, aborted checkpoint, recovery and
// completion, and the 40-line cap. The half-day trace fits under the cap,
// so its listing also shows a failure during recovery and the completion.
func TestReplayRenderPinned(t *testing.T) {
	for _, tc := range []struct {
		name    string
		horizon float64
		want    string
	}{
		{"30d", 30 * failure.SecondsPerDay, replay30d},
		{"half-day", failure.SecondsPerDay / 2, replayHalfDay},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, err := Replay(replayTrace(t, tc.horizon))
			if err != nil {
				t.Fatal(err)
			}
			if got := r.Render(); got != tc.want {
				t.Errorf("Render() =\n%s\nwant\n%s", got, tc.want)
			}
		})
	}
}

const replay30d = `Replay (16-12-8-4, Te=3m core-days, 706 trace events)
quantity           value                
-----------------------------------------
wall clock (days)  39.301               
failures replayed  [281 216 134 75]     
checkpoints taken  [19534 9816 6573 103]
restart time (s)   316085.0             
rollback time (s)  621663.0             
truncated          false                
  2911.4s failure L2 p=2816
  2972.7s recovery L2 p=2769
  8734.2s failure L1 p=8335
  8794.7s recovery L1 p=8315
  18537.9s checkpoint-abort L4 p=13125
  18537.9s failure L4 p=13125
  18597.9s recovery L0 p=0
  19972.3s failure L2 p=1332
  20033.6s recovery L2 p=1187
  22436.7s failure L4 p=3513
  22496.7s recovery L0 p=0
  31307.1s failure L2 p=8514
  31368.4s recovery L2 p=8504
  31397.3s failure L2 p=8532
  31458.6s recovery L2 p=8504
  33740.9s failure L2 p=10711
  33802.2s recovery L2 p=10679
  34879.4s failure L3 p=11722
  34941.4s recovery L3 p=11431
  45975.1s failure L2 p=16717
  46037.1s recovery L3 p=16707
  46627.9s failure L1 p=17281
  46688.3s recovery L1 p=17231
  47596.9s failure L1 p=18111
  47657.3s recovery L1 p=18032
  48168.7s failure L2 p=18527
  48230.6s recovery L3 p=18466
  51755.4s failure L2 p=21874
  51816.7s recovery L2 p=21754
  52600.7s failure L1 p=22516
  52661.1s recovery L1 p=22440
  54339.7s failure L4 p=24061
  57181.1s recovery L4 p=13125
  59953.9s failure L1 p=15807
  60014.4s recovery L1 p=15728
  68180.1s failure L3 p=23618
  68242.1s recovery L3 p=23449
  72101.2s checkpoint-abort L4 p=26251
  72101.2s failure L3 p=26251
  72163.1s recovery L3 p=26087
  ... 1538 more events
`

const replayHalfDay = `Replay (16-12-8-4, Te=3m core-days, 7 trace events)
quantity           value                
-----------------------------------------
wall clock (days)  23.198               
failures replayed  [1 4 1 1]            
checkpoints taken  [13690 6933 4677 103]
restart time (s)   5298.4               
rollback time (s)  6781.5               
truncated          false                
  1292.0s failure L2 p=1251
  1353.3s recovery L2 p=1187
  7963.7s failure L2 p=7577
  8025.0s recovery L2 p=7515
  8734.2s failure L1 p=8203
  8794.7s recovery L1 p=8115
  17768.1s checkpoint-abort L4 p=13125
  17768.1s failure L2 p=13125
  17829.3s recovery L2 p=13052
  20666.5s checkpoint-abort L4 p=13125
  20666.5s failure L3 p=13125
  20728.4s recovery L3 p=12897
  32783.0s failure L4 p=19172
  34933.7s failure L2 p=13125
  37775.2s recovery L4 p=13125
  2004320.9s completion L0 p=1364964
`
