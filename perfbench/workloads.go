package main

// workload is one fixed-work traffic mix; BENCHMARK.json records why
// each exists. Each run of a workload does the same work: perSecond×
// seconds exchanges, the same epoch boundaries, the same dialect seeds.
// The --seed argument generates the messages only; the dialect family
// and rekey seeds are fixed per workload, because per-dialect compile
// cost varies several fold with the seed.
type workload struct {
	name string
	run  func(workload, config) (*report, error)

	transport transport
	// perSecond is the work per second of --seconds, in exchanges: a
	// work budget, not a deadline.
	perSecond int
	// boundaryEvery is the number of exchanges between epoch steps.
	boundaryEvery int
	// rekeyEvery > 0 turns boundaries 1, 1+rekeyEvery, ... into rekeys.
	rekeyEvery int
	// warm compiles every epoch of the run in set-up.
	warm bool
	// setups is how many times a run sets the workload up; setup_s is
	// their median.
	setups     int
	familySeed int64
}

// minExchanges is the least work a run may measure: with 10k exchanges
// more than 100 round-trip samples lie beyond p99.
const minExchanges = 10000

// overheadEvery samples the exchanges whose wire bytes are compared with
// their plain (PerNode 0) encoding.
const overheadEvery = 4

// Every workload runs one closed-loop driver, and main runs the process
// on one processor (GOMAXPROCS 1): with two drivers on the two CPUs of
// the reference machine, or one driver with a second CPU left to the
// GC's idle-priority mark workers, throughput and CPU per message moved
// by 10-14% between runs of the same code.
var workloads = []workload{
	{
		name:      "modbus-steady",
		run:       runWith(&modbusApp),
		transport: inlineStream,
		perSecond: 4000,
		// Each set-up warms every epoch of the run, which bounds the
		// crossings a run can afford: 78 on a 20 s budget.
		boundaryEvery: 1024,
		warm:          true,
		setups:        3,
		familySeed:    0x5eed01,
	},
	{
		name:          "http-bulk",
		run:           runWith(&httpApp),
		transport:     loopbackTCP,
		perSecond:     2500,
		boundaryEvery: 256,
		warm:          true,
		setups:        9,
		familySeed:    0x5eed02,
	},
	{
		name:          "modbus-rekey",
		run:           runWith(&modbusApp),
		transport:     inlineStream,
		perSecond:     1000,
		boundaryEvery: 64,
		rekeyEvery:    4,
		setups:        15,
		familySeed:    0x5eed03,
	},
	{
		name:          "modbus-dgram",
		run:           runWith(&modbusApp),
		transport:     inlinePacket,
		perSecond:     4000,
		boundaryEvery: 1024,
		warm:          true,
		setups:        3,
		familySeed:    0x5eed04,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// plan is the fixed work of one run.
type plan struct {
	exchanges int
	lastEpoch uint64 // the highest epoch the run steps to
}

func (w workload) plan(cfg config) plan {
	n := cfg.exchanges
	if n <= 0 {
		n = max(w.perSecond*cfg.seconds, minExchanges)
	}
	return plan{exchanges: n, lastEpoch: uint64((n - 1) / w.boundaryEvery)}
}
