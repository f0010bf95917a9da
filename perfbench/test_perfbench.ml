(* The benchmark's self-tests: its statistics, its metric vocabulary
   against BENCHMARK.json, its input generator's seed discipline, its
   span arithmetic, and its failure accounting under an injected fault. *)

open Perfbench

let close_to = Alcotest.float 1e-9

(* ---- order statistics, against hand-computed values ---- *)

let one_to_ten = List.init 10 (fun i -> float_of_int (i + 1))

let test_percentile () =
  (* nearest rank: the ceil(p * n)-th smallest *)
  Alcotest.check close_to "p50 of 1..10" 5.0 (Quantile.percentile 0.5 one_to_ten);
  Alcotest.check close_to "p90 of 1..10" 9.0 (Quantile.percentile 0.9 one_to_ten);
  Alcotest.check close_to "p91 of 1..10" 10.0 (Quantile.percentile 0.91 one_to_ten);
  Alcotest.check close_to "p100" 10.0 (Quantile.percentile 1.0 one_to_ten);
  Alcotest.check close_to "p50 unsorted" 2.0 (Quantile.percentile 0.5 [ 3.0; 1.0; 2.0 ]);
  Alcotest.check close_to "single" 7.0 (Quantile.percentile 0.9 [ 7.0 ])

let test_median () =
  Alcotest.check close_to "odd" 2.0 (Quantile.median [ 3.0; 1.0; 2.0 ]);
  Alcotest.check close_to "even" 2.5 (Quantile.median [ 4.0; 1.0; 3.0; 2.0 ])

let test_quartiles () =
  (* Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] *)
  Alcotest.(check (list close_to))
    "1..10" [ 2.75; 5.5; 8.25 ] (Quantile.quantiles ~n:4 one_to_ten);
  (* statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75] *)
  Alcotest.(check (list close_to))
    "1..4" [ 1.25; 2.5; 3.75 ] (Quantile.quantiles ~n:4 [ 4.0; 2.0; 1.0; 3.0 ]);
  (* statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5] *)
  Alcotest.(check (list close_to))
    "two samples" [ 7.5; 15.0; 22.5 ] (Quantile.quantiles ~n:4 [ 10.0; 20.0 ]);
  Alcotest.check close_to "spread of 1..10" 1.0 (Quantile.spread one_to_ten)

(* ---- metric vocabulary ---- *)

let test_names () =
  let all = Metrics.end_to_end @ Metrics.per_layer in
  List.iter
    (fun (s : Metrics.spec) ->
      Alcotest.(check bool) ("valid name " ^ s.Metrics.name) true
        (Metrics.valid_name s.Metrics.name);
      Alcotest.(check bool) ("valid unit " ^ s.Metrics.unit) true
        (Metrics.valid_unit s.Metrics.unit))
    all;
  let names = List.map (fun s -> s.Metrics.name) all in
  Alcotest.(check int) "names unique" (List.length names)
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun bad ->
      Alcotest.(check bool) ("rejects " ^ bad) false (Metrics.valid_name bad))
    [ ""; ".lead"; "_lead"; "has space"; "semi;colon"; "slash/no"; String.make 65 'a' ];
  Alcotest.(check bool) "accepts dotted" true (Metrics.valid_name "pc_trace.read_ms")

(* The "name" values of BENCHMARK.json's [key] section, in order. *)
let declared json key =
  let find_from i sub =
    let n = String.length sub in
    let rec go i =
      if i + n > String.length json then None
      else if String.sub json i n = sub then Some i
      else go (i + 1)
    in
    go i
  in
  let start = Option.get (find_from 0 ("\"" ^ key ^ "\"")) in
  let stop =
    match find_from (start + 1) "]" with Some i -> i | None -> String.length json
  in
  let rec names i acc =
    match find_from i "\"name\": \"" with
    | Some j when j < stop ->
        let v = j + 9 in
        let e = String.index_from json v '"' in
        names e (String.sub json v (e - v) :: acc)
    | _ -> List.rev acc
  in
  names start []

let test_benchmark_json () =
  let json = In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all in
  let names l = List.map (fun s -> s.Metrics.name) l in
  Alcotest.(check (list string)) "end_to_end" (names Metrics.end_to_end)
    (declared json "end_to_end");
  Alcotest.(check (list string)) "per_layer" (names Metrics.per_layer)
    (declared json "per_layer")

(* ---- seed discipline ---- *)

(* A small synthetic block stream: a few loops over a handful of PCs. *)
let synthetic n salt =
  let starts = Array.init n (fun i -> 0x1000 + (64 * ((i * 7 + salt) mod 13))) in
  let insns = Array.init n (fun i -> 1 + (i mod 5)) in
  { Gen.starts; insns; len = n }

let churn_bytes seed =
  let streams =
    Gen.churn_streams [ ("a", synthetic 3000 1); ("b", synthetic 2500 5); ("c", synthetic 2000 9) ]
  in
  let path = Printf.sprintf "churn-%d.pctr" seed in
  Gen.write_churn ~seed ~path streams;
  let b = Gen.read path in
  Sys.remove path;
  b

let test_churn_seed () =
  let a = churn_bytes 1 and b = churn_bytes 1 and c = churn_bytes 2 in
  Alcotest.(check bool) "same seed, byte-identical trace" true (String.equal a b);
  Alcotest.(check bool) "different seed, different schedule" false (String.equal a c)

let test_fleet_seed () =
  let s = synthetic 5000 3 in
  let sessions seed = Gen.fleet_sessions ~seed ~dir:"." ~sizes:3 ~lo:100 ~hi:1000 s in
  let a = sessions 7 and b = sessions 7 and c = sessions 8 in
  let wire x = Array.to_list (Array.map (fun s -> s.Gen.wire) x) in
  Alcotest.(check int) "two formats per size" 6 (Array.length a);
  Alcotest.(check bool) "same seed, byte-identical sessions" true (wire a = wire b);
  Alcotest.(check bool) "different seed, different slices" false (wire a = wire c);
  let sizes x = List.sort compare (Array.to_list (Array.map (fun s -> s.Gen.blocks) x)) in
  Alcotest.(check (list int)) "same size grid under every seed" (sizes a) (sizes c);
  Alcotest.(check int) "each format tiles the stream once" (2 * s.Gen.len)
    (List.fold_left ( + ) 0 (sizes a));
  let o1 = Gen.order ~seed:7 6 and o2 = Gen.order ~seed:7 6 in
  let take o = List.init 12 (fun _ -> o ()) in
  let x = take o1 in
  Alcotest.(check (list int)) "same seed, same order" x (take o2);
  Alcotest.(check (list int)) "each round is a permutation" [ 0; 1; 2; 3; 4; 5 ]
    (List.sort compare (List.filteri (fun i _ -> i < 6) x))

(* ---- span arithmetic ---- *)

let test_self_time () =
  (* [1,5] + [7,8] + [9.5,10] after clipping to [0,10] *)
  Alcotest.check close_to "union of overlapping children" 5.5
    (Spans.covered 0.0 10.0 [ (1.0, 3.0); (2.0, 5.0); (7.0, 8.0); (9.5, 12.0) ]);
  let tr = Spans.create () in
  let p = Spans.record tr "op" 0.0 10.0 in
  ignore (Spans.record tr ~parent:p "a" 1.0 4.0);
  ignore (Spans.record tr ~parent:p "b" 3.0 6.0);
  let sum = Spans.by_name tr in
  Alcotest.check close_to "op self" 5.0 (Spans.self sum "op");
  Alcotest.check close_to "a total" 3.0 (Spans.total sum "a");
  Alcotest.(check int) "count" 1 (Spans.count sum "b")

(* ---- failure accounting under an injected fault ---- *)

let test_fault_injection () =
  let dir = "." in
  let c, _ = Offline.prepare ~base:"186.crafty" ~dir ~reps:1 () in
  let run expected =
    let tally = Tally.create () in
    ignore
      (Offline.timed_ops ~seconds:0.01 ~tally ~what:"offline replay"
         (fun () -> Offline.op c)
         (Tea_parallel.Profile.equal expected));
    tally
  in
  let good = run c.Offline.expected in
  Alcotest.(check int) "true expectation: no failure" 0 good.Tally.failed;
  Alcotest.(check int) "true expectation: exit 0" 0 (Tally.exit_code good);
  let wrong =
    { c.Offline.expected with Tea_parallel.Profile.cycles = c.Offline.expected.Tea_parallel.Profile.cycles + 1 }
  in
  let bad = run wrong in
  Alcotest.(check int) "every operation counted as failed" bad.Tally.attempted bad.Tally.failed;
  Alcotest.(check bool) "run is not correct" false (Tally.correct bad);
  Alcotest.(check int) "run exits non-zero" 1 (Tally.exit_code bad);
  Sys.remove c.Offline.path

let () =
  Alcotest.run "perfbench"
    [
      ( "quantile",
        [
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "quartiles" `Quick test_quartiles;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "names" `Quick test_names;
          Alcotest.test_case "BENCHMARK.json" `Quick test_benchmark_json;
        ] );
      ( "seed",
        [
          Alcotest.test_case "churn scenario" `Quick test_churn_seed;
          Alcotest.test_case "fleet sessions" `Quick test_fleet_seed;
        ] );
      ("spans", [ Alcotest.test_case "self time" `Quick test_self_time ]);
      ("tally", [ Alcotest.test_case "fault injection" `Quick test_fault_injection ]);
    ]
