(* In-memory span recorder for the traced run.

   Spans are recorded by the benchmark around its calls into each layer's
   public functions — never inside the program. A span is (id, parent,
   name, start, end); they are kept in memory while the run measures and
   written out once at the end. A layer's self time is its span's
   duration minus the union of the intervals its children cover (children
   may run concurrently on pool domains, so they can overlap). *)

type span = { id : int; parent : int; name : string; t0 : float; t1 : float }

type t = {
  mutable spans : span list;
  mutable next : int;
  m : Mutex.t;
  cur : int Domain.DLS.key;  (* innermost open span on this domain, 0 = root *)
}

let create () =
  {
    spans = [];
    next = 1;
    m = Mutex.create ();
    cur = Domain.DLS.new_key (fun () -> 0);
  }

let now = Unix.gettimeofday

let current t = Domain.DLS.get t.cur

(* [span t ?parent name f] runs [f] inside a span. The parent defaults to
   the innermost span open on the calling domain; work handed to another
   domain passes its parent explicitly. *)
let span t ?parent name f =
  let parent = match parent with Some p -> p | None -> current t in
  Mutex.lock t.m;
  let id = t.next in
  t.next <- id + 1;
  Mutex.unlock t.m;
  let saved = current t in
  Domain.DLS.set t.cur id;
  let t0 = now () in
  let finish () =
    let t1 = now () in
    Domain.DLS.set t.cur saved;
    Mutex.lock t.m;
    t.spans <- { id; parent; name; t0; t1 } :: t.spans;
    Mutex.unlock t.m
  in
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

(* A span whose interval was measured by the caller (e.g. a session's
   phases, known only once its reply arrives); returns its id. *)
let record t ?(parent = 0) name t0 t1 =
  Mutex.lock t.m;
  let id = t.next in
  t.next <- id + 1;
  t.spans <- { id; parent; name; t0; t1 } :: t.spans;
  Mutex.unlock t.m;
  id

let spans t = List.rev t.spans

(* Length of the union of [intervals] clipped to [lo, hi]. *)
let covered lo hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (acc, cur) (a, b) ->
        match cur with
        | None -> (acc, Some (a, b))
        | Some (ca, cb) ->
            if a <= cb then (acc, Some (ca, Float.max cb b))
            else (acc +. (cb -. ca), Some (a, b)))
      (0.0, None) clipped
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(* Total duration and total self time per span name, in seconds. *)
let by_name t =
  let all = spans t in
  let kids = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.add kids s.parent (s.t0, s.t1)) all;
  let acc = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let dur = s.t1 -. s.t0 in
      let self = dur -. covered s.t0 s.t1 (Hashtbl.find_all kids s.id) in
      let d, sf, n =
        Option.value (Hashtbl.find_opt acc s.name) ~default:(0.0, 0.0, 0)
      in
      Hashtbl.replace acc s.name (d +. dur, sf +. self, n + 1))
    all;
  acc

(* Lookups into a [by_name] summary; 0 for a name that never ran. *)
let total sum name =
  match Hashtbl.find_opt sum name with Some (d, _, _) -> d | None -> 0.0

let self sum name =
  match Hashtbl.find_opt sum name with Some (_, s, _) -> s | None -> 0.0

let count sum name =
  match Hashtbl.find_opt sum name with Some (_, _, n) -> n | None -> 0

(* One JSON object per span of every recorder, times in microseconds since
   the first span; ids are per recorder, so each line names its recorder. *)
let write ts path =
  let all =
    List.concat (List.mapi (fun r t -> List.map (fun s -> (r, s)) (spans t)) ts)
  in
  let base = List.fold_left (fun m (_, s) -> Float.min m s.t0) infinity all in
  let oc = open_out path in
  List.iter
    (fun (r, s) ->
      Printf.fprintf oc
        "{\"recorder\":%d,\"id\":%d,\"parent\":%d,\"name\":%S,\"start_us\":%.3f,\"end_us\":%.3f}\n"
        r s.id s.parent s.name
        ((s.t0 -. base) *. 1e6)
        ((s.t1 -. base) *. 1e6))
    all;
  close_out oc
