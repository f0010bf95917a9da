(* Order statistics over float samples. Inputs are never mutated. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  match sorted xs with
  | [||] -> invalid_arg "Quantile.median: no samples"
  | a ->
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile: the ceil(p * n)-th smallest sample, p in (0, 1].
   Every reported latency percentile uses this definition. *)
let percentile p xs =
  if p <= 0.0 || p > 1.0 then invalid_arg "Quantile.percentile: p not in (0, 1]";
  match sorted xs with
  | [||] -> invalid_arg "Quantile.percentile: no samples"
  | a ->
      let n = Array.length a in
      let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
      a.(max 0 (min (n - 1) (rank - 1)))

(* Cut points dividing the samples into [n] groups, exactly as Python's
   [statistics.quantiles(data, n=n)] computes them with its default
   'exclusive' method — the definition the run-to-run spread check uses. *)
let quantiles ~n xs =
  if n < 1 then invalid_arg "Quantile.quantiles: n < 1";
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Quantile.quantiles: need at least two samples";
  let m = ld + 1 in
  List.init (n - 1) (fun k ->
      let i = k + 1 in
      let j = max 1 (min (ld - 1) (i * m / n)) in
      let delta = (i * m) - (j * n) in
      ((a.(j - 1) *. float_of_int (n - delta)) +. (a.(j) *. float_of_int delta))
      /. float_of_int n)

(* Interquartile distance as a share of the median. *)
let spread xs =
  match quantiles ~n:4 xs with
  | [ q1; _; q3 ] -> (q3 -. q1) /. median xs
  | _ -> assert false

(* The timed phase cut into consecutive windows of operations, at most
   [max_windows] of them and each holding at least [min_ops] operations.
   [ops] are (latency_s, done_at, blocks) in completion order and [start]
   is when the phase began; a window's wall time runs from the previous
   window's last completion to its own. Returns, per window in order,
   (ns/block, latency p50 ms, latency p90 ms). *)
let windowed ~max_windows ~min_ops ~start ops =
  let ops = Array.of_list ops in
  let n = Array.length ops in
  if n = 0 then invalid_arg "Quantile.windowed: no operations";
  let k = max 1 (min max_windows (n / min_ops)) in
  List.init k (fun w ->
      let lo = w * n / k and hi = (w + 1) * n / k in
      let t_prev = if lo = 0 then start else (fun (_, t, _) -> t) ops.(lo - 1) in
      let _, t_last, _ = ops.(hi - 1) in
      let blocks = ref 0 and lats = ref [] in
      for i = lo to hi - 1 do
        let lat, _, b = ops.(i) in
        blocks := !blocks + b;
        lats := (lat *. 1e3) :: !lats
      done;
      ( (t_last -. t_prev) *. 1e9 /. float_of_int (max 1 !blocks),
        percentile 0.5 !lats,
        percentile 0.9 !lats ))
