(* The benchmark's metric vocabulary: every name it can print, with its
   unit and direction. BENCHMARK.json declares the same lists (the
   self-tests hold the two in step), and a result line carries exactly
   the end-to-end list untraced or exactly the per-layer list traced. *)

type better = Lower | Higher

type spec = { name : string; unit : string; better : better }

let spec name unit better = { name; unit; better }

let end_to_end =
  [
    spec "ns_per_block" "ns" Lower;
    spec "latency_ms_p50" "ms" Lower;
    spec "latency_ms_p90" "ms" Lower;
    spec "setup_s" "s" Lower;
    spec "sim_cycles_per_block" "cycles" Lower;
    spec "peak_rss_mb" "MiB" Lower;
  ]

(* Grouped by layer, in the order bytes flow through the system. A layer
   a workload does not exercise reports 0 (documented per workload in
   README.md). *)
let per_layer =
  [
    (* setup: record -> build -> freeze -> repack -> fuse -> compile *)
    spec "setup.record_s" "s" Lower;
    spec "setup.build_ms" "ms" Lower;
    spec "setup.freeze_ms" "ms" Lower;
    spec "setup.repack_ms" "ms" Lower;
    spec "setup.fuse_ms" "ms" Lower;
    spec "setup.compile_ms" "ms" Lower;
    spec "compile.ms_per_asid" "ms" Lower;
    (* Pc_trace: read and decode *)
    spec "pc_trace.read_ms" "ms" Lower;
    spec "pc_trace.decode_ns_per_block" "ns" Lower;
    spec "pc_trace.decode_alloc_words_per_block" "words" Lower;
    spec "pc_trace.bytes_per_block" "B" Lower;
    spec "pc_trace.stream_decode_ns_per_block" "ns" Lower;
    spec "pc_trace.stream_decode_alloc_words_per_block" "words" Lower;
    (* Replayer / Compiled: dispatch on pre-decoded arrays; Tierstat *)
    spec "replayer.dispatch_ns_per_block" "ns" Lower;
    spec "replayer.dispatch_alloc_words_per_block" "words" Lower;
    spec "tierstat.compiled_frac" "fraction" Higher;
    spec "tierstat.fused_frac" "fraction" Higher;
    spec "tierstat.hash_frac" "fraction" Lower;
    spec "tierstat.miss_frac" "fraction" Lower;
    (* Evq / Multi_replayer: staging and demux *)
    spec "evq.ns_per_event" "ns" Lower;
    spec "multi_replayer.feeder_ns_per_block" "ns" Lower;
    spec "multi_replayer.staging_ns_per_block" "ns" Lower;
    spec "multi_replayer.flushes_per_kblock" "count" Lower;
    spec "multi_replayer.switches_per_kblock" "count" Lower;
    (* Frame / Client / Profile: wire and fold *)
    spec "frame.parse_ns_per_byte" "ns" Lower;
    spec "frame.encode_profile_us" "us" Lower;
    spec "profile.snapshot_us" "us" Lower;
    spec "profile.merge_us" "us" Lower;
    spec "client.send_ms_p50" "ms" Lower;
    spec "client.tail_ms_p50" "ms" Lower;
    spec "client.tail_ms_p90" "ms" Lower;
    (* Server accessors after the live run; Exposition; scrapes *)
    spec "server.drain_ns_per_block" "ns" Lower;
    spec "server.drain_busy_frac" "fraction" Lower;
    spec "server.queue_depth_p50" "events" Lower;
    spec "server.queue_depth_p99" "events" Lower;
    spec "server.frames_per_session" "count" Lower;
    spec "server.session_ns_per_block_p50" "ns" Lower;
    spec "exposition.render_us" "us" Lower;
    spec "scrape_ms_p50" "ms" Lower;
    spec "scrape_ms_p90" "ms" Lower;
    (* Pool / Shard: parallel demuxed replay *)
    spec "shard.load_events_ns_per_block" "ns" Lower;
    spec "shard.mean_run_blocks" "blocks" Higher;
    spec "shard.replay_ns_per_block" "ns" Lower;
    spec "pool.busy_frac" "fraction" Higher;
    spec "pool.wait_ms" "ms" Lower;
    spec "pool.tasks" "count" Lower;
    (* whole operation *)
    spec "gc.minor_words_per_block" "words" Lower;
    spec "gc.major_collections_per_op" "count" Lower;
    spec "gc.top_heap_mb" "MiB" Lower;
    (* the ledger itself *)
    spec "ledger.unattributed_frac" "fraction" Lower;
    spec "trace.overhead_pct" "%" Lower;
  ]

let valid_char = function
  | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
  | _ -> false

(* A metric name: 1..64 of [A-Za-z0-9_.-], starting with a letter or a
   digit. *)
let valid_name s =
  let n = String.length s in
  n >= 1 && n <= 64
  && (match s.[0] with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false)
  && String.for_all valid_char s

let valid_unit s =
  let n = String.length s in
  n >= 1 && n <= 16
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '/' | '%' | '.' | '-' ->
             true
         | _ -> false)
       s
