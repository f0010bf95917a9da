module Btree = Tea_btree.Btree

type global_kind = Linear | Btree

type config = {
  global : global_kind;
  local_cache : bool;
  cache_slots : int;
}

let config_no_global_local = { global = Linear; local_cache = true; cache_slots = 8 }

let config_global_no_local =
  { global = Btree; local_cache = false; cache_slots = 8 }

let config_global_local = { global = Btree; local_cache = true; cache_slots = 8 }

type stats = {
  mutable steps : int;
  mutable in_trace_hits : int;
  mutable cache_hits : int;
  mutable global_hits : int;
  mutable global_misses : int;
}

type cache = {
  labels : int array;  (* -1 = empty *)
  targets : int array;
}

type t = {
  auto : Automaton.t;
  cfg : config;
  mutable linear : (int * Automaton.state) list;
  mutable btree : Automaton.state Btree.t;
  caches : (Automaton.state, cache) Hashtbl.t;
  st : stats;
  mutable total_cycles : int;
}

(* Cost constants (simulated cycles). Justification: an in-trace edge test
   is a compare plus a next-pointer load from a line-resident list (~2); a
   direct-mapped cache probe is an index computation plus tag compare (~3);
   chasing a linked-list node is a dependent load plus compare (~4); a B+
   tree lookup pays a descent setup (~6) plus ~3 per binary-search
   comparison (in-node keys are cache-resident); falling back to NTE does
   the cold-code bookkeeping the paper blames for the "Empty" anomaly. *)
let cost_edge_cmp = 2
let cost_cache_probe = 3
let cost_cache_fill = 2
let cost_linear_node = 4
let cost_btree_base = 6
let cost_btree_cmp = 3
let cost_nte_miss = 12

let fresh_stats () =
  { steps = 0; in_trace_hits = 0; cache_hits = 0; global_hits = 0; global_misses = 0 }

let rebuild t =
  let heads = Automaton.heads t.auto in
  t.linear <- heads;
  let bt = Btree.create ~order:8 () in
  List.iter (fun (addr, s) -> Btree.insert bt addr s) heads;
  t.btree <- bt;
  Hashtbl.reset t.caches

let create cfg auto =
  let t =
    {
      auto;
      cfg;
      linear = [];
      btree = Btree.create ~order:8 ();
      caches = Hashtbl.create 256;
      st = fresh_stats ();
      total_cycles = 0;
    }
  in
  rebuild t;
  t

let automaton t = t.auto

let config t = t.cfg

let refresh t = rebuild t

let cycles t = t.total_cycles

let stats t = t.st

let reset_counters t =
  t.total_cycles <- 0;
  t.st.steps <- 0;
  t.st.in_trace_hits <- 0;
  t.st.cache_hits <- 0;
  t.st.global_hits <- 0;
  t.st.global_misses <- 0

let cache_for t state =
  match Hashtbl.find_opt t.caches state with
  | Some c -> c
  | None ->
      let n = max 1 t.cfg.cache_slots in
      let c = { labels = Array.make n (-1); targets = Array.make n 0 } in
      Hashtbl.replace t.caches state c;
      c

let cache_slot t pc = (pc lsr 2) mod max 1 t.cfg.cache_slots

(* Scan the state's in-trace edges, charging per entry examined. *)
let scan_edges t state pc =
  let rec go edges visited =
    match edges with
    | [] -> (None, visited)
    | (label, target) :: rest ->
        if label = pc then (Some target, visited + 1) else go rest (visited + 1)
  in
  go (Automaton.edges_of t.auto state) 0

let global_lookup t pc =
  match t.cfg.global with
  | Linear ->
      let rec go l visited =
        match l with
        | [] -> (None, visited * cost_linear_node)
        | (addr, s) :: rest ->
            if addr = pc then (Some s, (visited + 1) * cost_linear_node)
            else go rest (visited + 1)
      in
      go t.linear 0
  | Btree ->
      let v, cmps = Btree.find_count t.btree pc in
      (v, cost_btree_base + (cost_btree_cmp * cmps))

(* Telemetry: one lookup-axis counter per step classification, plus a
   histogram of edge-list scan lengths. [m] is [None] on the default
   (disabled) path, so the only per-step cost is the option match. *)
let probe_edge_scan m visited =
  match m with
  | None -> ()
  | Some m -> Tea_telemetry.Metrics.observe_value m "transition.edge.scan_len" visited

let global_axis t =
  match t.cfg.global with
  | Linear -> "transition.global.linear"
  | Btree -> "transition.global.btree"

let step t state pc =
  t.st.steps <- t.st.steps + 1;
  let m = Tea_telemetry.Probe.metrics () in
  let probe name =
    match m with None -> () | Some m -> Tea_telemetry.Metrics.count m name 1
  in
  let cost = ref 0 in
  let result =
    (* 1. In-trace transition on the state's own edge list (the hot path). *)
    let from_edges =
      if state <> Automaton.nte && Automaton.is_live t.auto state then begin
        let found, visited = scan_edges t state pc in
        cost := !cost + (visited * cost_edge_cmp);
        probe_edge_scan m visited;
        found
      end
      else None
    in
    match from_edges with
    | Some target ->
        t.st.in_trace_hits <- t.st.in_trace_hits + 1;
        probe "transition.edge.hit";
        target
    | None -> (
        (* 2. Leaving a trace (or running cold): local cache, if enabled and
           we are inside a trace — the paper notes caches are pointless at
           NTE. *)
        let cached =
          if t.cfg.local_cache && state <> Automaton.nte then begin
            cost := !cost + cost_cache_probe;
            probe "transition.cache.probes";
            let c = cache_for t state in
            let i = cache_slot t pc in
            (* -1 marks an empty cell; heads are never negative *)
            if pc >= 0 && c.labels.(i) = pc then Some c.targets.(i) else None
          end
          else None
        in
        match cached with
        | Some target ->
            t.st.cache_hits <- t.st.cache_hits + 1;
            probe "transition.cache.hit";
            target
        | None -> (
            (* 3. Global container search for a trace head at [pc]. *)
            let found, lookup_cost = global_lookup t pc in
            cost := !cost + lookup_cost;
            match found with
            | Some head ->
                t.st.global_hits <- t.st.global_hits + 1;
                (match m with
                | None -> ()
                | Some m ->
                    Tea_telemetry.Metrics.count m (global_axis t ^ ".hit") 1);
                if t.cfg.local_cache && state <> Automaton.nte then begin
                  cost := !cost + cost_cache_fill;
                  let c = cache_for t state in
                  let i = cache_slot t pc in
                  c.labels.(i) <- pc;
                  c.targets.(i) <- head
                end;
                head
            | None ->
                t.st.global_misses <- t.st.global_misses + 1;
                (match m with
                | None -> ()
                | Some m ->
                    Tea_telemetry.Metrics.count m (global_axis t ^ ".miss") 1);
                cost := !cost + cost_nte_miss;
                Automaton.nte))
  in
  t.total_cycles <- t.total_cycles + !cost;
  result
