package main

import (
	"sort"

	"repro/internal/obs"
	"repro/internal/runtime"
)

// noteReport records the per-layer metrics read from one job's
// runtime.Report (a worker report merged across nodes for the cluster
// workloads).
func (r *run) noteReport(rep *runtime.Report) {
	if rep == nil {
		return
	}
	inst := rep.TotalInstances()
	r.note("runtime.instances", float64(inst))
	if inst > 0 {
		var disp int64
		for _, k := range rep.Kernels {
			disp += int64(k.DispatchTotal)
		}
		r.note("runtime.dispatch_ns_per_inst", float64(disp)/float64(inst))
	}
	r.note("runtime.steals", float64(rep.Steals))
	r.note("runtime.max_queue_depth", float64(rep.MaxQueueDepth))
	r.note("runtime.max_event_backlog", float64(rep.MaxEventBacklog))
	var events int64
	for _, e := range rep.ShardEvents {
		events += e
	}
	if rep.EventBatches > 0 {
		r.note("runtime.events_per_batch", float64(events)/float64(rep.EventBatches))
	}
	r.note("field.mem_elems_end", float64(rep.FieldMemElems))
	for _, k := range []string{"yDCT", "vlc_write", "read_splityuv", "assign", "dct"} {
		ks := rep.Kernel(k)
		if ks.Instances > 0 {
			r.note("kernel."+k+".exec_us", float64(ks.KernelPer())/1e3)
			if k == "assign" {
				r.note("kernel.assign.dispatch_us", float64(ks.DispatchPer())/1e3)
			}
		}
	}
	s := rep.Stages
	if s == nil {
		return
	}
	r.note("runtime.stage.queue_wait_ms", float64(s.QueueWaitNs)/1e6)
	r.note("runtime.stage.idle_ms", float64(s.IdleNs)/1e6)
	r.note("runtime.stage.ready_wait_ms", float64(s.ReadyWaitNs)/1e6)
	r.note("runtime.stage.fetch_ms", float64(s.FetchNs)/1e6)
	r.note("runtime.stage.store_ms", float64(s.StoreNs)/1e6)
	r.note("runtime.stage.exec_ms", float64(s.ExecNs)/1e6)
	r.note("runtime.stage.coverage", s.Coverage(rep.Wall))
	if s.WallNs > 0 {
		r.note("runtime.analyze_busy_ratio", float64(s.AnalyzeNs)/float64(s.WallNs))
		r.note("runtime.analyze_max_shard_ratio", float64(s.AnalyzeMaxShardNs)/float64(s.WallNs))
	}
}

// noteTracer records the spans the program's tracers kept and dropped in
// one job, summed over nodes.
func (r *run) noteTracer(nodes ...obs.NodeTrace) {
	if !r.traced {
		return
	}
	var kept, dropped int
	for _, n := range nodes {
		kept += len(n.Spans)
		dropped += int(n.Dropped)
	}
	r.note("obs.spans", float64(kept))
	r.note("obs.dropped_spans", float64(dropped))
}

// noteCommitLag records, per frame age, the gap between the end of the
// frame's last DCT instance and the start of its vlc_write instance, read
// from the nodes' kernel-instance spans (TS is the dispatch start) on the
// common clock the bundles' alignment data gives.
func (r *run) noteCommitLag(nodes []obs.NodeTrace) {
	lastDCT := map[int]int64{}
	vlc := map[int]int64{}
	for _, n := range nodes {
		base := n.StartUnixNs - n.OffsetNs
		for _, s := range n.Spans {
			if s.Ph != obs.PhaseComplete {
				continue
			}
			switch s.Name {
			case "yDCT", "uDCT", "vDCT":
				if end := base + s.TS + s.Dur; end > lastDCT[s.Age] {
					lastDCT[s.Age] = end
				}
			case "vlc_write":
				vlc[s.Age] = base + s.TS
			}
		}
	}
	var lags []float64
	ages := make([]int, 0, len(vlc))
	for a := range vlc {
		ages = append(ages, a)
	}
	sort.Ints(ages)
	for _, a := range ages {
		if end, ok := lastDCT[a]; ok {
			lags = append(lags, float64(vlc[a]-end)/1e6)
		}
	}
	if len(lags) == 0 {
		return
	}
	r.note("runtime.frame_commit_lag_p50_ms", median(lags))
	tl, _ := tail(lags)
	r.note("runtime.frame_commit_lag_tail_ms", tl)
}
