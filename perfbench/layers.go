package main

import (
	"fmt"
	"sort"
	"time"

	"quaestor/internal/query"
)

// counters reads the exported counters of every layer. Cumulative values
// only: a timed phase sums their deltas over its timed segments.
func (s *stack) counters() map[string]float64 {
	c := map[string]float64{}
	for _, sess := range s.sessions {
		st := sess.c.Stats()
		c["client.hits"] += float64(st.CacheHits)
		c["client.requests"] += float64(st.NetworkRequests)
		c["client.revalidations"] += float64(st.Revalidations)
		c["client.ebf_refreshes"] += float64(st.EBFRefreshes)
	}
	c["origin.requests"] = float64(s.ins.originRequests.Load())
	c["cdn.purges"] = float64(s.cdn.Cache.Stats().Purges)

	sv := s.srv.Stats()
	c["server.reads"] = float64(sv.Reads)
	c["server.queries"] = float64(sv.Queries)
	c["server.writes"] = float64(sv.Writes)
	c["server.not_modified"] = float64(sv.Revalidations)
	c["server.query_activations"] = float64(sv.QueryActivations)
	c["server.rejected_queries"] = float64(sv.RejectedQueries)
	c["store.plan_probes"] = float64(sv.PlanProbes)
	c["store.plan_ranges"] = float64(sv.PlanRanges)
	c["store.plan_scans"] = float64(sv.PlanScans)
	c["store.rows_examined"] = float64(sv.RowsExamined)
	c["store.rows_returned"] = float64(sv.RowsReturned)

	inv := s.srv.InvaliDB()
	ingested, notified := inv.Stats()
	c["invalidb.ingested"] = float64(ingested)
	c["invalidb.notifications"] = float64(notified)
	c["invalidb.evaluations"] = float64(inv.EvaluatedMatches())

	for _, st := range s.stores() {
		ps := st.PipelineStats()
		c["commitlog.published"] += float64(ps.Stream.Published)
		for _, b := range ps.Stream.Latency.Buckets {
			c[fmt.Sprintf("commitlog.le.%d", b.LeMicros)] += float64(b.Count)
		}
		if ds, ok := st.DurabilityStats(); ok {
			c["wal.fsyncs"] += float64(ds.WAL.Fsyncs)
			c["wal.appends"] += float64(ds.WAL.Appends)
			c["wal.batches"] += float64(ds.WAL.Batches)
			c["wal.bytes"] += float64(ds.WAL.SegmentBytes)
		}
	}
	return c
}

// gauges reads the layer sizes and latency summaries at the end of a
// timed phase, while the server still runs.
func (s *stack) gauges() map[string]float64 {
	g := map[string]float64{
		"cache.cdn_entries":   float64(s.cdn.Cache.Len()),
		"ttl.active_queries":  float64(s.srv.InvaliDB().ActiveQueries()),
		"store.exec_probe_us": s.srv.PlanLatency(query.PlanProbe).Percentile(0.5) * 1e3,
		"store.exec_range_us": s.srv.PlanLatency(query.PlanRange).Percentile(0.5) * 1e3,
		"store.exec_scan_us":  s.srv.PlanLatency(query.PlanScan).Percentile(0.5) * 1e3,
	}
	for _, sess := range s.sessions {
		g["cache.browser_entries"] += float64(sess.c.LocalCache().Len())
	}
	return g
}

// addDelta adds after − before to acc.
func addDelta(acc, before, after map[string]float64) {
	for k, v := range after {
		acc[k] += v - before[k]
	}
}

// bucketMedianUs is the upper bound of the commit pipeline's latency
// bucket that holds the median delivery.
func bucketMedianUs(c map[string]float64) float64 {
	type bucket struct{ le, n float64 }
	var bs []bucket
	var total float64
	for k, v := range c {
		var le float64
		if _, err := fmt.Sscanf(k, "commitlog.le.%g", &le); err == nil && v > 0 {
			bs = append(bs, bucket{le, v})
			total += v
		}
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	var run float64
	for _, b := range bs {
		run += b.n
		if run >= total/2 {
			return b.le
		}
	}
	return 0
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetric is one per-layer figure with its unit.
type layerMetric struct {
	name  string
	unit  string
	value float64
}

// perLayer computes the per-layer metrics of a traced phase.
func perLayer(in *instruments, p *phase, recovery time.Duration) []layerMetric {
	ops := float64(p.ops)
	c := p.counters
	out := []layerMetric{{"trace.ops_per_s", "1/s", p.meter.opsPerSec()}}
	add := func(name, unit string, v float64) { out = append(out, layerMetric{name, unit, v}) }

	// Spans: per op, the time spent in its exchanges; per exchange, the
	// time the CDN tier's handler took; per CDN request, the origin's.
	opHTTP := map[uint64]float64{}
	reqCDN := map[uint64]float64{}
	reqOrigin := map[uint64]float64{}
	var opSpans, httpSpans []span
	var rt, reqBytes, respBytes, ebfBytes, ebfFetches float64
	var cdnLookups, cdnHits float64
	var rts []float64
	handler := map[string][]float64{}
	var recordTTL, queryTTL []float64
	for _, sp := range p.spans {
		d := float64(sp.end-sp.start) / 1e3
		if sp.end == 0 {
			continue
		}
		switch sp.layer {
		case "op":
			opSpans = append(opSpans, sp)
		case "http":
			httpSpans = append(httpSpans, sp)
			opHTTP[sp.parent] += d
			rt += d
			rts = append(rts, d)
			reqBytes += float64(sp.reqBytes)
			respBytes += float64(sp.respBytes)
			if sp.kind == "ebf" {
				ebfBytes += float64(sp.respBytes)
				ebfFetches++
			}
		case "cdn":
			reqCDN[sp.parent] += d
			if sp.kind == "read" || sp.kind == "query" {
				cdnLookups++
				if sp.hit {
					cdnHits++
				}
			}
		case "origin":
			reqOrigin[sp.parent] += d
			handler[sp.kind] = append(handler[sp.kind], d)
			if sp.ttlSec > 0 && sp.kind == "read" {
				recordTTL = append(recordTTL, sp.ttlSec)
			}
			if sp.ttlSec > 0 && sp.kind == "query" {
				queryTTL = append(queryTTL, sp.ttlSec)
			}
		}
	}
	var clientSelf float64
	for _, sp := range opSpans {
		clientSelf += float64(sp.end-sp.start)/1e3 - opHTTP[sp.id]
	}
	var httpSelf, cdnSelf, cdnCount float64
	for _, sp := range httpSpans {
		httpSelf += float64(sp.end-sp.start)/1e3 - reqCDN[sp.id]
		if cd, ok := reqCDN[sp.id]; ok {
			cdnSelf += cd - reqOrigin[sp.id]
			cdnCount++
		}
	}

	add("client.self_us", "us", ratio(clientSelf, float64(len(opSpans))))
	add("client.hits_per_op", "1", c["client.hits"]/ops)
	add("client.requests_per_op", "1", c["client.requests"]/ops)
	add("client.revalidations_per_op", "1", c["client.revalidations"]/ops)
	add("client.ebf_refreshes", "count", c["client.ebf_refreshes"])

	add("http.roundtrip_p50_us", "us", quantileOf(rts, 0.5))
	add("http.self_us", "us", ratio(httpSelf, float64(len(httpSpans))))
	add("http.request_kb_per_op", "KiB", reqBytes/1024/ops)
	add("http.response_kb_per_op", "KiB", respBytes/1024/ops)

	add("cache.cdn_hit_ratio", "1", ratio(cdnHits, cdnLookups))
	add("cache.cdn_self_us", "us", ratio(cdnSelf, cdnCount))
	add("cache.cdn_purges", "count", c["cdn.purges"])
	add("cache.cdn_entries", "count", p.gauges["cache.cdn_entries"])
	add("cache.browser_entries", "count", p.gauges["cache.browser_entries"])

	add("server.handler_read_p50_us", "us", quantileOf(handler["read"], 0.5))
	add("server.handler_query_p50_us", "us", quantileOf(handler["query"], 0.5))
	add("server.handler_write_p50_us", "us", quantileOf(handler["write"], 0.5))
	add("server.origin_reads", "count", c["server.reads"])
	add("server.origin_queries", "count", c["server.queries"])
	add("server.writes", "count", c["server.writes"])
	add("server.not_modified", "count", c["server.not_modified"])
	add("server.query_activations", "count", c["server.query_activations"])
	add("server.rejected_queries", "count", c["server.rejected_queries"])

	in.mu.Lock()
	overActual := quantileOf(in.ttlOverActual, 0.5)
	writeToPurge := quantileOf(in.writeToPurge, 0.5)
	beforeAck := ratio(float64(in.purgedBeforeAck), float64(in.purgedBeforeAck+len(in.writeToPurge)))
	in.mu.Unlock()
	add("ttl.record_ttl_s_p50", "s", quantileOf(recordTTL, 0.5))
	add("ttl.query_ttl_s_p50", "s", quantileOf(queryTTL, 0.5))
	add("ttl.query_ttl_over_actual_p50", "1", overActual)
	add("ttl.active_queries", "count", p.gauges["ttl.active_queries"])

	add("ebf.bytes", "B", ratio(ebfBytes, ebfFetches))
	add("ebf.wasted_revalidation_ratio", "1", ratio(c["server.not_modified"], c["client.revalidations"]))

	add("invalidb.ingested", "count", c["invalidb.ingested"])
	add("invalidb.notifications", "count", c["invalidb.notifications"])
	add("invalidb.evaluations_per_write", "1", ratio(c["invalidb.evaluations"], c["server.writes"]))
	add("invalidb.write_to_purge_p50_us", "us", writeToPurge)
	add("invalidb.purged_before_ack_ratio", "1", beforeAck)

	add("store.rows_examined_per_returned", "1", ratio(c["store.rows_examined"], c["store.rows_returned"]))
	// PlanLatency is timed on the server's clock; under the virtual
	// caching clock it reads 0.
	for _, k := range []string{"probe", "range", "scan"} {
		add("store.exec_"+k+"_p50_us", "us", p.gauges["store.exec_"+k+"_us"])
	}
	add("store.plan_probes", "count", c["store.plan_probes"])
	add("store.plan_ranges", "count", c["store.plan_ranges"])
	add("store.plan_scans", "count", c["store.plan_scans"])

	add("wal.fsyncs_per_write", "1", ratio(c["wal.fsyncs"], c["server.writes"]))
	add("wal.mean_batch", "1", ratio(c["wal.appends"], c["wal.batches"]))
	var userBytes float64
	for _, sp := range httpSpans {
		if sp.kind == "write" {
			userBytes += float64(sp.bodyBytes)
		}
	}
	add("wal.bytes_per_user_byte", "1", ratio(c["wal.bytes"], userBytes))
	add("wal.recovery_s", "s", recovery.Seconds())

	add("commitlog.deliver_p50_us", "us", bucketMedianUs(c))
	add("commitlog.published", "count", c["commitlog.published"])

	add("runtime.gc_cycles_per_kop", "1", p.meter.gcCycles*1000/ops)
	add("runtime.gc_cpu_us_per_op", "us", float64(p.meter.gcCPU.Nanoseconds())/1e3/ops)
	add("runtime.gc_pause_ms", "ms", p.meter.gcPauseNs/1e6)
	return out
}
