module Block = Tea_cfg.Block

type engine =
  | Reference of Transition.t
  | Packed of Packed.t
  | Compiled of Compiled.t

type t = {
  mutable engine : engine; (* swapped in place by [rebind] *)
  auto : Automaton.t option;
  mutable counts : int array; (* execution count per state id, grown on demand *)
  mutable state : Automaton.state;
  mutable covered : int;
  mutable total : int;
  mutable enters : int;
  mutable exits : int;
  mutable zeros : int array; (* cached all-zero insns batch, grown on demand *)
}

let make engine auto =
  {
    engine;
    auto;
    counts = Array.make 256 0;
    state = Automaton.nte;
    covered = 0;
    total = 0;
    enters = 0;
    exits = 0;
    zeros = [||];
  }

let create trans = make (Reference trans) (Some (Transition.automaton trans))

let create_packed packed = make (Packed packed) (Packed.automaton packed)

let create_compiled compiled =
  make (Compiled compiled) (Packed.automaton (Compiled.base compiled))

let engine t = t.engine

let grow_counts t need =
  let n = ref (Array.length t.counts) in
  while !n <= need do
    n := !n * 2
  done;
  let fresh = Array.make !n 0 in
  Array.blit t.counts 0 fresh 0 (Array.length t.counts);
  t.counts <- fresh

(* Shared per-step accounting; inlined into both the single-address and the
   batched entry points. *)
let[@inline] account t prev next insns =
  t.state <- next;
  t.total <- t.total + insns;
  if next <> Automaton.nte then begin
    t.covered <- t.covered + insns;
    if next >= Array.length t.counts then grow_counts t next;
    Array.unsafe_set t.counts next (1 + Array.unsafe_get t.counts next)
  end;
  if prev = Automaton.nte && next <> Automaton.nte then t.enters <- t.enters + 1;
  if prev <> Automaton.nte && next = Automaton.nte then t.exits <- t.exits + 1

(* Telemetry: the replayer-level counters (steps, NTE entries/exits).
   Per-step paths emit them directly; the batch paths flush one delta per
   batch so the batch loops stay call-free. *)
let probe_step prev next =
  match Tea_telemetry.Probe.metrics () with
  | None -> ()
  | Some m ->
      Tea_telemetry.Metrics.count m "replayer.steps" 1;
      if prev = Automaton.nte && next <> Automaton.nte then
        Tea_telemetry.Metrics.count m "replayer.trace_enters" 1;
      if prev <> Automaton.nte && next = Automaton.nte then
        Tea_telemetry.Metrics.count m "replayer.trace_exits" 1

let feed_addr t ?(insns = 0) addr =
  let prev = t.state in
  let next =
    match t.engine with
    | Reference trans -> Transition.step trans prev addr
    | Packed packed -> Packed.step packed prev addr
    | Compiled c ->
        (* single-step path: the base image's interpreted step is
           observationally identical (and updates the same stats), so
           the compiled closures stay batch-only *)
        Packed.step (Compiled.base c) prev addr
  in
  account t prev next insns;
  probe_step prev next

let feed t (b : Block.t) = feed_addr t ~insns:(Block.n_insns b) b.Block.start

(* End-of-batch epilogue shared by the packed and compiled batch loops:
   one telemetry flush, the replayer's totals, the image's stats, inline
   cache and cycle counters. [covered]/[total]/[enters]/[exits] are the
   batch's deltas. In-trace hits are derived ([len - hash hits - hash
   misses]): every step resolves in-span / on-chain, in the global hash,
   or not at all. The conditional counters keep each engine's telemetry
   name set: [packed.fused_steps] only on a fused image, [packed.ic_*]
   only when the engine keeps an inline cache ([ic]: the packed loop on a
   repacked image) — a zero count would still register the name. *)
let flush_batch t img ~len ~ic ~state ~covered ~total ~enters ~exits ~g_hits
    ~g_miss ~fused_steps ~ic_hits ~ic_misses ~cycles =
  let in_hits = len - g_hits - g_miss in
  (match Tea_telemetry.Probe.metrics () with
  | None -> ()
  | Some m ->
      let open Tea_telemetry.Metrics in
      count m "replayer.steps" len;
      count m "replayer.trace_enters" enters;
      count m "replayer.trace_exits" exits;
      count m "packed.in_trace_hit" in_hits;
      count m "packed.global_hit" g_hits;
      count m "packed.global_miss" g_miss;
      if Packed.is_fused img then count m "packed.fused_steps" fused_steps;
      if ic then begin
        count m "packed.ic_hit" ic_hits;
        count m "packed.ic_miss" ic_misses
      end);
  t.state <- state;
  t.covered <- t.covered + covered;
  t.total <- t.total + total;
  t.enters <- t.enters + enters;
  t.exits <- t.exits + exits;
  let st = Packed.stats img in
  st.Transition.steps <- st.Transition.steps + len;
  st.Transition.in_trace_hits <- st.Transition.in_trace_hits + in_hits;
  st.Transition.global_hits <- st.Transition.global_hits + g_hits;
  st.Transition.global_misses <- st.Transition.global_misses + g_miss;
  if ic then Packed.add_ic img ~hits:ic_hits ~misses:ic_misses;
  Packed.add_cycles img cycles

(* Validates the batch's entry state and grows the count array once up
   front: every possible next state (targets, hash values, chain
   targets, NTE) is < n_slots, so the loops write counts unchecked. *)
let enter_batch t n_slots =
  if t.state < 0 || t.state >= n_slots then
    invalid_arg "Replayer.feed_run: state id outside the frozen image";
  if Array.length t.counts < n_slots then grow_counts t (n_slots - 1)

(* What a chain match hands back to the batch loop: the cycles and
   instructions it charged and the state it ended in. *)
type chain_run = {
  mutable r_cycles : int;
  mutable r_insns : int;
  mutable r_state : int;
}

(* Matches the PCs from [i] (up to [stop]) against chain [c], entered at
   state [prev], with one comparison loop — no automaton dispatch — and
   charges the matched steps in bulk: counts and tier attribution in
   place, cycles, instructions and the final state into [r]. Returns the
   number of matched steps, 0 when the first PC already diverges. For a
   cyclic chain, [full] complete iterations cost O(cycle length)
   regardless of [full]. It is a call rather than part of the batch
   loop's body because inline, its locals crowd the dispatch step's
   registers: unfused replay of listscan, branchy, mcf and gzip ran
   1.05-1.23x slower that way, fused replay at most 5% faster (2-vCPU
   Xeon VM, OCaml 5.1 without flambda). *)
let match_chain (f : Packed.fusion) csums counts tly addrs ins ~i ~stop ~prev
    c r =
  let foff = f.Packed.foff in
  let fsig = f.Packed.fsig in
  let ftgt = f.Packed.ftgt in
  let fecost = f.Packed.fecost in
  let lo = Array.unsafe_get foff c in
  let hi = Array.unsafe_get foff (c + 1) in
  let p = Array.unsafe_get f.Packed.fpos prev in
  let cycles = ref 0 in
  if Array.unsafe_get f.Packed.fcyc c = 1 then begin
    (* Cyclic chain: match the incoming PC run against the cycle's
       signature, wrapping — one compare + one insns add per step. *)
    let j = ref i and q = ref (lo + p) and isum = ref 0 in
    while !j < stop && Array.unsafe_get addrs !j = Array.unsafe_get fsig !q do
      isum := !isum + Array.unsafe_get ins !j;
      incr j;
      incr q;
      if !q = hi then q := lo
    done;
    let m = !j - i in
    if m > 0 then begin
      let l = hi - lo in
      (* Short matches (the common exit-every-lap-or-two case) skip the
         division entirely; only long fast-forwards pay it, where it is
         amortized over >= 2l steps. *)
      let full = if m < l then 0 else if m - l < l then 1 else m / l in
      let rem = m - (full * l) in
      (* [full] complete iterations: every edge taken [full] times, the
         cycle cost charged as one multiply — the fast-forward. *)
      if full > 0 then begin
        cycles := full * Array.unsafe_get csums c;
        for e = lo to hi - 1 do
          let tgt = Array.unsafe_get ftgt e in
          Array.unsafe_set counts tgt (full + Array.unsafe_get counts tgt)
        done
      end;
      (* [rem] leftover steps from position [p], wrapping once. *)
      let e = ref (lo + p) in
      for _ = 1 to rem do
        cycles := !cycles + Array.unsafe_get fecost !e;
        let tgt = Array.unsafe_get ftgt !e in
        Array.unsafe_set counts tgt (1 + Array.unsafe_get counts tgt);
        incr e;
        if !e = hi then e := lo
      done;
      (* Tier attribution: the source of the edge at ring position [q]
         is the previous position's target — a fixed property of the
         cycle, so the charge is independent of how the match splits
         across batches. *)
      (match tly with
      | None -> ()
      | Some a ->
          if full > 0 then
            for e = lo to hi - 1 do
              let src =
                Array.unsafe_get ftgt (if e = lo then hi - 1 else e - 1)
              in
              Tierstat.bump_n a ~tier:Tierstat.t_fused ~state:src full
            done;
          let e = ref (lo + p) in
          for _ = 1 to rem do
            let src =
              Array.unsafe_get ftgt (if !e = lo then hi - 1 else !e - 1)
            in
            Tierstat.bump a ~tier:Tierstat.t_fused ~state:src;
            incr e;
            if !e = hi then e := lo
          done);
      (* the edge that produced the final state sits just before the
         next expected position [!q] — no second division *)
      let last = if !q = lo then hi - 1 else !q - 1 in
      r.r_cycles <- !cycles;
      r.r_insns <- !isum;
      r.r_state <- Array.unsafe_get ftgt last
    end;
    m
  end
  else begin
    (* Straight chain: match linearly up to the chain's end. *)
    let j = ref i and q = ref (lo + p) and isum = ref 0 in
    while
      !q < hi && !j < stop
      && Array.unsafe_get addrs !j = Array.unsafe_get fsig !q
    do
      isum := !isum + Array.unsafe_get ins !j;
      incr j;
      incr q
    done;
    let m = !j - i in
    if m > 0 then begin
      for e = lo + p to lo + p + m - 1 do
        cycles := !cycles + Array.unsafe_get fecost e;
        let tgt = Array.unsafe_get ftgt e in
        Array.unsafe_set counts tgt (1 + Array.unsafe_get counts tgt)
      done;
      (* Entry state [prev] sources the first matched edge; each later
         edge's source is the previous edge's target. *)
      (match tly with
      | None -> ()
      | Some a ->
          let src = ref prev in
          for e = lo + p to lo + p + m - 1 do
            Tierstat.bump a ~tier:Tierstat.t_fused ~state:!src;
            src := Array.unsafe_get ftgt e
          done);
      r.r_cycles <- !cycles;
      r.r_insns <- !isum;
      r.r_state <- Array.unsafe_get ftgt (lo + p + m - 1)
    end;
    m
  end

(* The packed batch loop: {!Packed.step} plus the per-step accounting,
   replicated inline so a dispatch step makes no calls and touches no
   heap records — everything accumulates in local cells and is flushed
   once per batch. It is the executable spec of the packed cost model; the
   replication is pinned to the step-at-a-time path by the
   feed_run/feed_addr qcheck properties (state sequence, coverage, stats
   and cycles) on flat, repacked and fused images.

   One step resolves the current state's span — on a repacked image the
   inline cache, then the most-taken-first prefix, then binary search
   over the sorted tail, charging the precomputed edge_cost/miss_cost (an
   IC hit charges exactly what the scan charged when the entry was
   filled, so simulated cycles stay a pure function of the stream, which
   keeps sharded replay bit-identical); on a flat image binary search,
   one cost per probe — and on a span miss probes the trace-head hash.

   On an image carrying a {!Packed.fusion} overlay, a state on a fused
   chain first tries {!match_chain}; an image without one never does.
   {!Packed.with_fusion} validates that each chain edge restates a 1-edge
   span with the exact cost the dispatch charges and that every chain
   target is in-trace; a mismatching PC falls through to the ordinary
   step. Only the inline-cache hit/miss {e split} can differ (chain steps
   consult no IC) — the same documented exception as the parallel
   driver's chunk-local IC; it is excluded from {!snapshot}. *)
let run_packed t packed addrs ins ~off ~len =
  let raw = Packed.to_raw packed in
  let offsets = raw.Packed.offsets in
  let labels = raw.Packed.labels in
  let targets = raw.Packed.targets in
  let keys = raw.Packed.hash_keys in
  let vals = raw.Packed.hash_vals in
  let hot_len = raw.Packed.hot_len in
  let repacked = Packed.is_repacked packed in
  (* Repacked-only live arrays; empty — and never read — on a flat image. *)
  let edge_cost, miss_cost, ic_label, ic_target, ic_cost =
    if repacked then
      let v = Packed.hot_view packed in
      ( v.Packed.v_edge_cost,
        v.Packed.v_miss_cost,
        v.Packed.v_ic_label,
        v.Packed.v_ic_target,
        v.Packed.v_ic_cost )
    else ([||], [||], [||], [||], [||])
  in
  (* Chain tables; empty — and never read — without an overlay. The
     per-chain cost sums are hoisted once per batch: a full cycle
     iteration charges a constant, so the fast-forward multiplies
     instead of re-summing fecost on every chain entry. *)
  let fusion = Packed.fusion_of packed in
  let fchain, csums =
    match fusion with
    | None -> ([||], [||])
    | Some f ->
        let foff = f.Packed.foff in
        let csums = Array.make (Array.length foff - 1) 0 in
        for c = 0 to Array.length csums - 1 do
          for e = foff.(c) to foff.(c + 1) - 1 do
            csums.(c) <- csums.(c) + f.Packed.fecost.(e)
          done
        done;
        (f.Packed.fchain, csums)
  in
  let mask = Array.length keys - 1 in
  enter_batch t (Array.length offsets - 1);
  let counts = t.counts in
  let nte = Automaton.nte in
  let state = ref t.state in
  let covered = ref 0 and total = ref 0 in
  let enters = ref 0 and exits = ref 0 in
  let g_hits = ref 0 and g_miss = ref 0 in
  let ic_h = ref 0 and ic_m = ref 0 in
  let fused_steps = ref 0 in
  let cycles = ref 0 in
  let run = { r_cycles = 0; r_insns = 0; r_state = 0 } in
  (* Hoisted telemetry handle: [None] (one atomic load per batch) on the
     disabled path; when enabled, hash-probe lengths are recovered from
     the cycle deltas the loop already accumulates, so the loop body
     itself gains no bookkeeping. *)
  let hprobe =
    match Tea_telemetry.Probe.metrics () with
    | None -> None
    | Some m -> Some (Tea_telemetry.Metrics.histogram m "packed.hash_probe_len")
  in
  (* Hoisted tier tally: [None] when the dispatch profiler is off, so the
     disabled path adds one predictable branch per resolution on an
     immutable local — same budget class as [hprobe]. *)
  let tly = Tierstat.tally () in
  let stop = off + len in
  let i = ref off in
  while !i < stop do
    let prev = !state in
    let matched =
      match fusion with
      | None -> 0
      | Some f ->
          let c = Array.unsafe_get fchain prev in
          if c < 0 then 0
          else match_chain f csums counts tly addrs ins ~i:!i ~stop ~prev c run
    in
    if matched = 0 then begin
      (* One dispatch step: unchained state, no overlay, or the stream
         diverged from the chain signature. *)
      let pc = Array.unsafe_get addrs !i in
      let next =
        if repacked && Array.unsafe_get ic_label prev = pc
           && pc <> Packed.ic_empty
        then begin
          (* monomorphic inline cache: one compare, one precomputed charge *)
          incr ic_h;
          cycles := !cycles + Array.unsafe_get ic_cost prev;
          (match tly with
          | None -> ()
          | Some a -> Tierstat.bump a ~tier:Tierstat.t_ic ~state:prev);
          Array.unsafe_get ic_target prev
        end
        else begin
          let lo = Array.unsafe_get offsets prev in
          let hi = Array.unsafe_get offsets (prev + 1) in
          let hit =
            if repacked then begin
              incr ic_m;
              let hstop = lo + Array.unsafe_get hot_len prev in
              (* linear scan of the most-taken-first prefix *)
              let e = ref (-1) in
              let j = ref lo in
              while !e < 0 && !j < hstop do
                if Array.unsafe_get labels !j = pc then e := !j else incr j
              done;
              (* binary search over the sorted tail *)
              if !e < 0 && hi > hstop then begin
                let base = ref hstop and l = ref (hi - hstop) in
                while !l > 1 do
                  let half = !l lsr 1 in
                  if Array.unsafe_get labels (!base + half) <= pc then
                    base := !base + half;
                  l := !l - half
                done;
                if Array.unsafe_get labels !base = pc then e := !base
              end;
              if !e >= 0 then begin
                let cst = Array.unsafe_get edge_cost !e in
                cycles := !cycles + cst;
                let tgt = Array.unsafe_get targets !e in
                Array.unsafe_set ic_label prev pc;
                Array.unsafe_set ic_target prev tgt;
                Array.unsafe_set ic_cost prev cst;
                (match tly with
                | None -> ()
                | Some a ->
                    (* [!e < hstop]: the most-taken-first prefix; otherwise
                       the binary-search tail. *)
                    let tier =
                      if !e < hstop then Tierstat.t_hot else Tierstat.t_search
                    in
                    Tierstat.bump a ~tier ~state:prev);
                tgt
              end
              else begin
                (* span miss: charge the full scan *)
                cycles := !cycles + Array.unsafe_get miss_cost prev;
                -1
              end
            end
            else if hi > lo then begin
              (* branchless lower bound over the state's sorted span *)
              let base = ref lo and l = ref (hi - lo) in
              while !l > 1 do
                let half = !l lsr 1 in
                if Array.unsafe_get labels (!base + half) <= pc then
                  base := !base + half;
                l := !l - half;
                cycles := !cycles + Packed.cost_search_step
              done;
              cycles := !cycles + Packed.cost_search_step;
              if Array.unsafe_get labels !base = pc then begin
                (match tly with
                | None -> ()
                | Some a ->
                    Tierstat.bump a ~tier:Tierstat.t_search ~state:prev);
                Array.unsafe_get targets !base
              end
              else -1
            end
            else -1
          in
          if hit >= 0 then hit
          else begin
            (* cross-trace / cold: probe the trace-head hash *)
            cycles := !cycles + Packed.cost_hash_base;
            let c0 = !cycles in
            let idx = ref (Packed.hash_pc mask pc) in
            let found = ref (-2) in
            while !found = -2 do
              cycles := !cycles + Packed.cost_hash_probe;
              let k = Array.unsafe_get keys !idx in
              if k < 0 then found := -1
              else if k = pc then found := Array.unsafe_get vals !idx
              else idx := (!idx + 1) land mask
            done;
            (match hprobe with
            | None -> ()
            | Some h ->
                (* cost_hash_probe = 1 cycle per slot examined *)
                Tea_telemetry.Metrics.observe h
                  ((!cycles - c0) / Packed.cost_hash_probe));
            (match tly with
            | None -> ()
            | Some a ->
                let tier =
                  if !found >= 0 then Tierstat.t_hash else Tierstat.t_miss
                in
                Tierstat.bump a ~tier ~state:prev);
            if !found >= 0 then begin
              incr g_hits;
              !found
            end
            else begin
              incr g_miss;
              cycles := !cycles + Transition.cost_nte_miss;
              nte
            end
          end
        end
      in
      let insns = Array.unsafe_get ins !i in
      state := next;
      total := !total + insns;
      if next <> nte then begin
        covered := !covered + insns;
        Array.unsafe_set counts next (1 + Array.unsafe_get counts next)
      end;
      if prev = nte && next <> nte then incr enters;
      if prev <> nte && next = nte then incr exits;
      incr i
    end
    else begin
      cycles := !cycles + run.r_cycles;
      covered := !covered + run.r_insns;
      total := !total + run.r_insns;
      state := run.r_state;
      i := !i + matched;
      fused_steps := !fused_steps + matched
    end
  done;
  flush_batch t packed ~len ~ic:repacked ~state:!state ~covered:!covered
    ~total:!total ~enters:!enters ~exits:!exits ~g_hits:!g_hits
    ~g_miss:!g_miss ~fused_steps:!fused_steps ~ic_hits:!ic_h ~ic_misses:!ic_m
    ~cycles:!cycles

(* Batch replay through the closure-threaded compiled image: the
   threading itself lives in {!Compiled}; every closure writes straight
   into the count array, and the batch's deltas go through the same
   epilogue as the packed loop's. The compiled engine keeps no inline
   cache, so no [packed.ic_*] counters. *)
let run_compiled t c addrs ins ~off ~len =
  let base = Compiled.base c in
  enter_batch t (Packed.n_slots base);
  let d = Compiled.run c ~state:t.state ~counts:t.counts ~off addrs ins ~len in
  flush_batch t base ~len ~ic:false ~state:d.Compiled.d_state
    ~covered:d.Compiled.d_covered ~total:d.Compiled.d_total
    ~enters:d.Compiled.d_enters ~exits:d.Compiled.d_exits
    ~g_hits:d.Compiled.d_g_hits ~g_miss:d.Compiled.d_g_miss
    ~fused_steps:d.Compiled.d_fused_steps ~ic_hits:0 ~ic_misses:0
    ~cycles:d.Compiled.d_cycles

let no_insns = [||]

let feed_run t ?(off = 0) ?insns addrs ~len =
  if len < 0 || off < 0 || off + len > Array.length addrs then
    invalid_arg "Replayer.feed_run: len out of range";
  (match insns with
  | Some a when Array.length a < off + len ->
      invalid_arg "Replayer.feed_run: insns array shorter than len"
  | _ -> ());
  (* reuse a cached all-zero scratch instead of allocating a fresh
     array on every no-insns batch *)
  let ins =
    match insns with
    | Some a -> a
    | None ->
        if len = 0 then no_insns
        else begin
          if Array.length t.zeros < off + len then
            t.zeros <- Array.make (off + len) 0;
          t.zeros
        end
  in
  (* The engine match is hoisted out of the loop: one branchy dispatch per
     batch, not one per block. *)
  match t.engine with
  | Packed packed -> run_packed t packed addrs ins ~off ~len
  | Compiled c -> run_compiled t c addrs ins ~off ~len
  | Reference trans ->
      let enters0 = t.enters and exits0 = t.exits in
      for i = off to off + len - 1 do
        let prev = t.state in
        let next = Transition.step trans prev (Array.unsafe_get addrs i) in
        account t prev next (Array.unsafe_get ins i)
      done;
      (match Tea_telemetry.Probe.metrics () with
      | None -> ()
      | Some m ->
          let open Tea_telemetry.Metrics in
          count m "replayer.steps" len;
          count m "replayer.trace_enters" (t.enters - enters0);
          count m "replayer.trace_exits" (t.exits - exits0))

let set_state t s =
  if s < 0 then invalid_arg "Replayer.set_state: negative state id";
  t.state <- s

let state t = t.state

let covered_insns t = t.covered

let total_insns t = t.total

let coverage t =
  if t.total = 0 then 0.0 else float_of_int t.covered /. float_of_int t.total

let trace_enters t = t.enters

let trace_exits t = t.exits

(* Replay runs in the engine's own id space; on a repacked image that is
   the permuted slot space, so reporting translates back to original
   automaton ids here — the one boundary — keeping TBB mappings
   byte-identical to the flat engine's. *)
let repacked_of t =
  match t.engine with
  | Packed p when Packed.is_repacked p -> Some p
  | Compiled c when Packed.is_repacked (Compiled.base c) ->
      Some (Compiled.base c)
  | _ -> None

let tbb_counts t =
  let acc = ref [] in
  (match repacked_of t with
  | None ->
      for s = Array.length t.counts - 1 downto 0 do
        if t.counts.(s) > 0 then acc := (s, t.counts.(s)) :: !acc
      done
  | Some p ->
      for s = Array.length t.counts - 1 downto 0 do
        if t.counts.(s) > 0 then
          acc := (Packed.orig_state p s, t.counts.(s)) :: !acc
      done;
      acc := List.sort (fun (a, _) (b, _) -> Int.compare a b) !acc);
  !acc

let count_of_state t s =
  let s =
    match repacked_of t with None -> s | Some p -> Packed.slot_of_state p s
  in
  if s >= 0 && s < Array.length t.counts then t.counts.(s) else 0

let automaton t = t.auto

let stats t =
  match t.engine with
  | Reference trans -> Transition.stats trans
  | Packed packed -> Packed.stats packed
  | Compiled c -> Packed.stats (Compiled.base c)

let cycles t =
  match t.engine with
  | Reference trans -> Transition.cycles trans
  | Packed packed -> Packed.cycles packed
  | Compiled c -> Packed.cycles (Compiled.base c)

let trace_profile t id =
  match t.auto with
  | None -> []
  | Some auto ->
      List.filter_map
        (fun s ->
          match Automaton.state_info auto s with
          | Some info -> Some (info.Automaton.tbb_index, count_of_state t s)
          | None -> None)
        (Automaton.states_of_trace auto id)
      |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let transition t =
  match t.engine with
  | Reference trans -> trans
  | Packed _ -> invalid_arg "Replayer.transition: packed engine"
  | Compiled _ -> invalid_arg "Replayer.transition: compiled engine"

(* Hot image swap. Replay state lives in three places: the per-slot
   counts array and current state (slot space of the old image), and the
   engine stats/cycles (accumulated on the old image's counters). All of
   it survives a layout change through the orig-id permutation: slot
   [s] of the old image and slot [slot_of_state new (orig_state old s)]
   of the new one are the same automaton state, and NTE is pinned to
   slot 0 in every layout. Stats and cycles are carried additively onto
   the new image so a snapshot taken right after rebind equals one taken
   right before — the swap is observationally a no-op. *)
let image_of_engine who = function
  | Packed p -> p
  | Compiled c -> Compiled.base c
  | Reference _ -> invalid_arg (who ^ ": reference engine cannot be swapped")

let rebind t engine' =
  let old_img = image_of_engine "Replayer.rebind" t.engine in
  let new_img = image_of_engine "Replayer.rebind" engine' in
  if Packed.n_slots new_img <> Packed.n_slots old_img then
    invalid_arg "Replayer.rebind: images describe different automata";
  let n_slots = Packed.n_slots old_img in
  (* counts: old slot space -> orig ids -> new slot space *)
  let fresh = Array.make (max (Array.length t.counts) (max n_slots 256)) 0 in
  let limit = min (Array.length t.counts) n_slots in
  for s = 0 to limit - 1 do
    let c = Array.unsafe_get t.counts s in
    if c > 0 then begin
      let s' = Packed.slot_of_state new_img (Packed.orig_state old_img s) in
      fresh.(s') <- fresh.(s') + c
    end
  done;
  t.counts <- fresh;
  if t.state <> Automaton.nte && t.state < n_slots then
    t.state <- Packed.slot_of_state new_img (Packed.orig_state old_img t.state);
  (* carry engine-side accounting onto the new image *)
  let so = Packed.stats old_img and sn = Packed.stats new_img in
  sn.Transition.steps <- sn.Transition.steps + so.Transition.steps;
  sn.Transition.in_trace_hits <-
    sn.Transition.in_trace_hits + so.Transition.in_trace_hits;
  sn.Transition.cache_hits <- sn.Transition.cache_hits + so.Transition.cache_hits;
  sn.Transition.global_hits <-
    sn.Transition.global_hits + so.Transition.global_hits;
  sn.Transition.global_misses <-
    sn.Transition.global_misses + so.Transition.global_misses;
  Packed.add_cycles new_img (Packed.cycles old_img);
  Packed.add_ic new_img ~hits:(Packed.ic_hits old_img)
    ~misses:(Packed.ic_misses old_img);
  t.engine <- engine'

(* Everything a replayer accumulates, as one immutable value. Every field
   is an integer total (the counts list is per-state totals), so two
   snapshots of disjoint step ranges merge by pointwise addition — the
   algebra Tea_parallel.Profile builds on. *)
type snapshot = {
  counts : (Automaton.state * int) list;
  covered : int;
  total : int;
  enters : int;
  exits : int;
  steps : int;
  in_trace_hits : int;
  cache_hits : int;
  global_hits : int;
  global_misses : int;
  cycles : int;
}

let snapshot (t : t) =
  let st = stats t in
  {
    counts = tbb_counts t;
    covered = t.covered;
    total = t.total;
    enters = t.enters;
    exits = t.exits;
    steps = st.Transition.steps;
    in_trace_hits = st.Transition.in_trace_hits;
    cache_hits = st.Transition.cache_hits;
    global_hits = st.Transition.global_hits;
    global_misses = st.Transition.global_misses;
    cycles = cycles t;
  }
