module Bitset = Tsg_util.Bitset
module Prng = Tsg_util.Prng
module Stats = Tsg_util.Stats
module Text_table = Tsg_util.Text_table
module Timer = Tsg_util.Timer

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let flt = Alcotest.float 1e-9

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* --- Bitset -------------------------------------------------------------- *)

let test_bitset_basics () =
  let b = Bitset.create 100 in
  check bool "fresh is empty" true (Bitset.is_empty b);
  check int "capacity" 100 (Bitset.capacity b);
  Bitset.set b 0;
  Bitset.set b 63;
  Bitset.set b 64;
  Bitset.set b 99;
  check bool "mem 0" true (Bitset.mem b 0);
  check bool "mem 63" true (Bitset.mem b 63);
  check bool "mem 64" true (Bitset.mem b 64);
  check bool "mem 99" true (Bitset.mem b 99);
  check bool "not mem 1" false (Bitset.mem b 1);
  check int "cardinal" 4 (Bitset.cardinal b);
  Bitset.unset b 63;
  check bool "unset" false (Bitset.mem b 63);
  check int "cardinal after unset" 3 (Bitset.cardinal b)

let test_bitset_bounds () =
  let b = Bitset.create 10 in
  Alcotest.check_raises "set out of range" (Invalid_argument
    "Bitset: index 10 out of bounds (capacity 10)") (fun () -> Bitset.set b 10);
  Alcotest.check_raises "negative" (Invalid_argument
    "Bitset: index -1 out of bounds (capacity 10)") (fun () ->
      ignore (Bitset.mem b (-1)))

let test_bitset_zero_capacity () =
  let b = Bitset.create 0 in
  check bool "empty" true (Bitset.is_empty b);
  check int "cardinal" 0 (Bitset.cardinal b);
  check bool "equal itself" true (Bitset.equal b (Bitset.create 0))

let test_bitset_set_ops () =
  let a = Bitset.of_list 10 [ 1; 3; 5; 7 ] in
  let b = Bitset.of_list 10 [ 3; 4; 5; 9 ] in
  check (Alcotest.list int) "inter" [ 3; 5 ] (Bitset.to_list (Bitset.inter a b));
  check (Alcotest.list int) "union" [ 1; 3; 4; 5; 7; 9 ]
    (Bitset.to_list (Bitset.union a b));
  check (Alcotest.list int) "diff" [ 1; 7 ] (Bitset.to_list (Bitset.diff a b));
  check bool "intersects" true (Bitset.intersects a b);
  check bool "disjoint" false (Bitset.intersects a (Bitset.of_list 10 [ 0; 2 ]));
  check bool "subset no" false (Bitset.subset a b);
  check bool "subset yes" true (Bitset.subset (Bitset.of_list 10 [ 3; 5 ]) a);
  check bool "subset self" true (Bitset.subset a a)

let test_bitset_inter_into_aliasing () =
  let a = Bitset.of_list 10 [ 1; 2; 3 ] in
  let b = Bitset.of_list 10 [ 2; 3; 4 ] in
  Bitset.inter_into ~dst:a a b;
  check (Alcotest.list int) "dst aliases a" [ 2; 3 ] (Bitset.to_list a)

let test_bitset_copy_independent () =
  let a = Bitset.of_list 10 [ 1 ] in
  let b = Bitset.copy a in
  Bitset.set b 2;
  check bool "copy does not leak" false (Bitset.mem a 2);
  check bool "copy has both" true (Bitset.mem b 1 && Bitset.mem b 2)

let test_bitset_full_clear_choose () =
  let b = Bitset.full 70 in
  check int "full cardinal" 70 (Bitset.cardinal b);
  check (Alcotest.option int) "choose smallest" (Some 0) (Bitset.choose b);
  Bitset.unset b 0;
  check (Alcotest.option int) "choose next" (Some 1) (Bitset.choose b);
  Bitset.clear b;
  check bool "cleared" true (Bitset.is_empty b);
  check (Alcotest.option int) "choose empty" None (Bitset.choose b);
  (* every bit position of two words, the sign bits (62, 125) included *)
  for i = 0 to 125 do
    let one = Bitset.of_list 126 [ i ] in
    check (Alcotest.option int) "choose singleton" (Some i) (Bitset.choose one);
    check (Alcotest.list int) "iter singleton" [ i ] (Bitset.to_list one)
  done

let test_bitset_iter_order () =
  let b = Bitset.of_list 200 [ 150; 3; 64; 127 ] in
  let seen = ref [] in
  Bitset.iter (fun i -> seen := i :: !seen) b;
  check (Alcotest.list int) "ascending" [ 3; 64; 127; 150 ] (List.rev !seen)

let test_bitset_exists_forall () =
  let b = Bitset.of_list 10 [ 2; 4; 6 ] in
  check bool "exists even" true (Bitset.exists (fun i -> i mod 2 = 0) b);
  check bool "exists odd" false (Bitset.exists (fun i -> i mod 2 = 1) b);
  check bool "forall even" true (Bitset.for_all (fun i -> i mod 2 = 0) b);
  check bool "forall >2" false (Bitset.for_all (fun i -> i > 2) b)

let test_bitset_capacity_mismatch () =
  let a = Bitset.create 10 and b = Bitset.create 11 in
  Alcotest.check_raises "inter mismatch"
    (Invalid_argument "Bitset.inter: capacity mismatch") (fun () ->
      ignore (Bitset.inter a b));
  Alcotest.check_raises "inter_cardinal mismatch"
    (Invalid_argument "Bitset.inter_cardinal: capacity mismatch") (fun () ->
      ignore (Bitset.inter_cardinal a b))

(* model-based property: bitset ops agree with a set-of-ints model *)
module Int_set = Set.Make (Int)

(* Capacities around one and two words (62/63/64, 125/126/127) or
   anywhere up to 200, and members drawn as whole words: full words,
   words holding only their top bit (bit 62, OCaml's sign bit, i.e.
   [min_int]), dense words (7 in 8 bits) and a few sparse members. Each
   word shape takes a different branch of the set-bit kernels. *)
let bitset_capacity_gen =
  QCheck.Gen.(oneof [ oneofl [ 62; 63; 64; 125; 126; 127 ]; int_range 1 200 ])

let bitset_members_gen cap =
  let open QCheck.Gen in
  let w = Sys.int_size in
  let in_word k keep =
    List.filter (fun i -> i < cap) (List.filteri keep (List.init w (fun b -> (k * w) + b)))
  in
  let chunk =
    int_bound ((cap - 1) / w) >>= fun k ->
    frequency
      [
        (2, return (in_word k (fun _ _ -> true)));
        (2, return (in_word k (fun b _ -> b = w - 1)));
        ( 2,
          map
            (fun keep -> in_word k (fun b _ -> List.nth keep b))
            (list_repeat w (frequency [ (7, return true); (1, return false) ])) );
        (3, list_size (int_bound 8) (int_bound (cap - 1)));
      ]
  in
  map List.concat (list_size (int_bound 5) chunk)

let bitset_pair_arb =
  QCheck.make
    ~print:QCheck.Print.(triple int (list int) (list int))
    QCheck.Gen.(
      bitset_capacity_gen >>= fun cap ->
      map2 (fun xs ys -> (cap, xs, ys)) (bitset_members_gen cap)
        (bitset_members_gen cap))

let bitset_model_prop =
  QCheck.Test.make ~name:"bitset agrees with Set model" ~count:300
    bitset_pair_arb
    (fun (cap, xs, ys) ->
      let a = Bitset.of_list cap xs and b = Bitset.of_list cap ys in
      let ma = Int_set.of_list xs and mb = Int_set.of_list ys in
      let eq bs m = Bitset.to_list bs = Int_set.elements m in
      let via_iter = ref [] in
      Bitset.iter (fun i -> via_iter := i :: !via_iter) a;
      eq (Bitset.inter a b) (Int_set.inter ma mb)
      && eq (Bitset.union a b) (Int_set.union ma mb)
      && eq (Bitset.diff a b) (Int_set.diff ma mb)
      && eq a ma
      && List.rev !via_iter = Int_set.elements ma
      && Bitset.fold (fun i acc -> i :: acc) a [] = List.rev (Int_set.elements ma)
      && Bitset.choose a = Int_set.min_elt_opt ma
      && Bitset.cardinal a = Int_set.cardinal ma
      && Bitset.subset a b = Int_set.subset ma mb
      && Bitset.intersects a b = not (Int_set.disjoint ma mb))

(* iter, fold, to_list, choose, cardinal (pop-count) must all agree on
   the same population, whatever mix of set/unset produced it *)
let bitset_iteration_consistency_prop =
  QCheck.Test.make ~name:"iter/fold/cardinal agree on population" ~count:300
    bitset_pair_arb
    (fun (cap, sets, unsets) ->
      let b = Bitset.create cap in
      List.iter (Bitset.set b) sets;
      List.iter (Bitset.unset b) unsets;
      let via_iter = ref [] in
      Bitset.iter (fun i -> via_iter := i :: !via_iter) b;
      let via_iter = List.rev !via_iter in
      let via_fold = List.rev (Bitset.fold (fun i acc -> i :: acc) b []) in
      let counted = Bitset.fold (fun _ acc -> acc + 1) b 0 in
      via_iter = via_fold
      && via_iter = Bitset.to_list b
      && via_iter = Int_set.(elements (diff (of_list sets) (of_list unsets)))
      && Bitset.choose b = List.nth_opt via_iter 0
      && counted = Bitset.cardinal b
      && List.for_all (Bitset.mem b) via_iter
      && via_iter = List.sort_uniq compare via_iter)

let bitset_popcount_ops_prop =
  QCheck.Test.make ~name:"pop-count distributes over set ops" ~count:300
    QCheck.(pair (list (int_bound 99)) (list (int_bound 99)))
    (fun (xs, ys) ->
      let a = Bitset.of_list 100 xs and b = Bitset.of_list 100 ys in
      let inter = Bitset.cardinal (Bitset.inter a b) in
      Bitset.intersects a b = (inter > 0)
      && Bitset.cardinal (Bitset.union a b)
         = Bitset.cardinal a + Bitset.cardinal b - inter
      && Bitset.cardinal (Bitset.diff a b) = Bitset.cardinal a - inter)

(* the Step-3 support bound: a pop-count of the AND, dense words
   included, equal to counting the fresh intersection *)
let bitset_inter_cardinal_prop =
  QCheck.Test.make ~name:"inter_cardinal = cardinal of inter" ~count:300
    bitset_pair_arb
    (fun (cap, xs, ys) ->
      let a = Bitset.of_list cap xs and b = Bitset.of_list cap ys in
      Bitset.inter_cardinal a b = Bitset.cardinal (Bitset.inter a b)
      && Bitset.inter_cardinal a b = Bitset.inter_cardinal b a
      && Bitset.inter_cardinal a a = Bitset.cardinal a)

(* --- Metrics -------------------------------------------------------------- *)

module Metrics = Tsg_util.Metrics

let test_metrics_counters () =
  let m = Metrics.create () in
  let c = Metrics.counter m "requests" in
  check int "starts at zero" 0 (Metrics.value c);
  Metrics.incr c;
  Metrics.incr ~n:4 c;
  check int "accumulates" 5 (Metrics.value c);
  let c' = Metrics.counter m "requests" in
  Metrics.incr c';
  check int "same name, same counter" 6 (Metrics.value c);
  Alcotest.check_raises "negative rejected"
    (Invalid_argument "Metrics.incr: negative increment") (fun () ->
      Metrics.incr ~n:(-1) c)

let test_metrics_hit_rate () =
  let m = Metrics.create () in
  let hits = Metrics.counter m "hits" and misses = Metrics.counter m "misses" in
  check flt "empty is 0" 0.0 (Metrics.hit_rate ~hits ~misses);
  Metrics.incr ~n:3 hits;
  Metrics.incr ~n:1 misses;
  check flt "3/4" 0.75 (Metrics.hit_rate ~hits ~misses)

let test_metrics_histogram () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "latency" in
  check int "empty count" 0 (Metrics.count h);
  check flt "empty mean" 0.0 (Metrics.mean h);
  check flt "empty percentile" 0.0 (Metrics.percentile h 99.0);
  List.iter (Metrics.observe h) [ 0.001; 0.002; 0.004; 0.1 ];
  check int "count" 4 (Metrics.count h);
  check (Alcotest.float 1e-9) "sum" 0.107 (Metrics.sum h);
  check (Alcotest.float 1e-9) "mean" 0.02675 (Metrics.mean h);
  check flt "max" 0.1 (Metrics.max_value h);
  (* bucket upper bounds: the p50 of {1,2,4,100}ms sits in the 2ms bucket *)
  check flt "p50 bound" 0.002 (Metrics.percentile h 50.0);
  check bool "p100 covers max" true (Metrics.percentile h 100.0 >= 0.1);
  Metrics.observe h (-5.0);
  check int "negative clamps, still counted" 5 (Metrics.count h);
  check flt "clamped to zero" 0.1 (Metrics.max_value h)

let test_metrics_render () =
  let m = Metrics.create () in
  Metrics.incr ~n:7 (Metrics.counter m "cache.hits");
  Metrics.observe (Metrics.histogram m "latency.contains") 0.003;
  let rendered = Metrics.render m in
  check bool "counter row" true (contains rendered "cache.hits");
  check bool "counter value" true (contains rendered "7");
  check bool "histogram row" true (contains rendered "latency.contains")

(* --- Prng ---------------------------------------------------------------- *)

let test_prng_deterministic () =
  let a = Prng.of_int 1234 and b = Prng.of_int 1234 in
  let seq r = List.init 20 (fun _ -> Prng.int r 1000) in
  check (Alcotest.list int) "same seed same stream" (seq a) (seq b)

let test_prng_different_seeds () =
  let a = Prng.of_int 1 and b = Prng.of_int 2 in
  let seq r = List.init 20 (fun _ -> Prng.int r 1_000_000) in
  check bool "different" true (seq a <> seq b)

let test_prng_split () =
  let parent = Prng.of_int 99 in
  let child = Prng.split parent in
  let a = List.init 10 (fun _ -> Prng.int parent 1000) in
  let b = List.init 10 (fun _ -> Prng.int child 1000) in
  check bool "streams differ" true (a <> b)

let test_prng_copy () =
  let a = Prng.of_int 5 in
  ignore (Prng.int a 10);
  let b = Prng.copy a in
  check int "copy continues identically" (Prng.int a 1000) (Prng.int b 1000)

let test_prng_shuffle_permutation () =
  let rng = Prng.of_int 3 in
  let arr = Array.init 50 (fun i -> i) in
  Prng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  check (Alcotest.array int) "permutation" (Array.init 50 (fun i -> i)) sorted

let test_prng_sample () =
  let rng = Prng.of_int 8 in
  let arr = Array.init 20 (fun i -> i) in
  let s = Prng.sample rng arr 10 in
  check int "length" 10 (List.length s);
  check int "distinct" 10 (List.length (List.sort_uniq compare s))

let test_prng_degenerate () =
  let rng = Prng.of_int 4 in
  check int "int 1 is 0" 0 (Prng.int rng 1);
  check int "int_in singleton" 7 (Prng.int_in rng 7 7);
  check bool "bernoulli 0" false (Prng.bernoulli rng 0.0);
  check int "geometric p=1" 0 (Prng.geometric rng 1.0);
  Alcotest.check_raises "int 0 rejected"
    (Invalid_argument "Prng.int: bound must be positive") (fun () ->
      ignore (Prng.int rng 0))

let prng_bounds_prop =
  QCheck.Test.make ~name:"Prng.int within bounds" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, n) ->
      let rng = Prng.of_int seed in
      let x = Prng.int rng n in
      0 <= x && x < n)

let prng_float_prop =
  QCheck.Test.make ~name:"Prng.float within [0,x)" ~count:500
    QCheck.(pair small_int (float_range 0.001 1000.0))
    (fun (seed, x) ->
      let rng = Prng.of_int seed in
      let f = Prng.float rng x in
      0.0 <= f && f < x)

(* --- Stats --------------------------------------------------------------- *)

let test_stats_mean_median () =
  check flt "mean" 2.5 (Stats.mean [ 1.0; 2.0; 3.0; 4.0 ]);
  check flt "mean_int" 2.0 (Stats.mean_int [ 1; 2; 3 ]);
  check flt "median odd" 3.0 (Stats.median [ 5.0; 1.0; 3.0 ]);
  check flt "median even" 2.5 (Stats.median [ 4.0; 1.0; 2.0; 3.0 ]);
  check bool "mean empty nan" true (Float.is_nan (Stats.mean []));
  check bool "median empty nan" true (Float.is_nan (Stats.median []))

let test_stats_stddev () =
  check flt "constant" 0.0 (Stats.stddev [ 2.0; 2.0; 2.0 ]);
  check (Alcotest.float 1e-6) "known" 2.0 (Stats.stddev [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ])

let test_stats_min_max_percentile () =
  let xs = [ 3.0; 1.0; 4.0; 1.5; 9.0 ] in
  check flt "min" 1.0 (Stats.minimum xs);
  check flt "max" 9.0 (Stats.maximum xs);
  check flt "p0" 1.0 (Stats.percentile 0.0 xs);
  check flt "p100" 9.0 (Stats.percentile 100.0 xs);
  check flt "p50 = median elt" 3.0 (Stats.percentile 50.0 xs);
  (* nearest rank over 1..10: the p-th percentile is the ceil(p/10)-th
     smallest value *)
  let ten = List.init 10 (fun i -> float_of_int (10 - i)) in
  List.iter
    (fun (p, expect) ->
      check flt (Printf.sprintf "p%.0f of 1..10" p) expect
        (Stats.percentile p ten))
    [ (10.0, 1.0); (11.0, 2.0); (50.0, 5.0); (90.0, 9.0); (99.0, 10.0) ];
  check bool "empty is nan" true (Float.is_nan (Stats.percentile 50.0 []))

let test_stats_round_to () =
  check flt "2 places" 3.14 (Stats.round_to 2 3.14159);
  check flt "0 places" 3.0 (Stats.round_to 0 3.14159)

(* --- Text_table ---------------------------------------------------------- *)

let test_table_render () =
  let t = Text_table.create [ "name"; "value" ] in
  Text_table.add_row t [ "alpha"; "1" ];
  Text_table.add_row t [ "b"; "22" ];
  let rendered = Text_table.render t in
  check bool "aligned header" true
    (String.length (List.hd (String.split_on_char '\n' rendered)) > 10);
  check bool "contains alpha" true
    (String.length rendered > 0
    && contains rendered "alpha")

let test_table_short_rows_padded () =
  let t = Text_table.create [ "a"; "b"; "c" ] in
  Text_table.add_row t [ "only" ];
  let lines = String.split_on_char '\n' (Text_table.render t) in
  check int "three lines" 3 (List.length lines);
  let widths = List.map String.length lines in
  check bool "all lines same width" true
    (List.for_all (fun w -> w = List.hd widths) widths)

let test_table_csv () =
  let t = Text_table.create [ "name"; "value" ] in
  Text_table.add_row t [ "plain"; "1" ];
  Text_table.add_row t [ "with,comma"; "say \"hi\"" ];
  let csv = Text_table.to_csv t in
  let lines = String.split_on_char '\n' (String.trim csv) in
  check int "three lines" 3 (List.length lines);
  check Alcotest.string "header" "name,value" (List.nth lines 0);
  check Alcotest.string "plain row" "plain,1" (List.nth lines 1);
  check Alcotest.string "quoted row" "\"with,comma\",\"say \"\"hi\"\"\""
    (List.nth lines 2)

let test_table_int_row () =
  let t = Text_table.create [ "id"; "x"; "y" ] in
  Text_table.add_int_row t "row" [ 10; 20 ];
  check bool "renders ints" true (contains (Text_table.render t) "20")

(* --- Timer --------------------------------------------------------------- *)

let test_timer_budget () =
  check bool "unlimited" false (Timer.Budget.exceeded Timer.Budget.unlimited);
  check bool "unlimited remaining" true
    (Timer.Budget.remaining_s Timer.Budget.unlimited = infinity);
  let b = Timer.Budget.of_seconds (-1.0) in
  check bool "past deadline" true (Timer.Budget.exceeded b);
  check flt "no remaining" 0.0 (Timer.Budget.remaining_s b)

let test_timer_monotone () =
  let t = Timer.start () in
  let a = Timer.elapsed_s t in
  let b = Timer.elapsed_s t in
  check bool "non-negative, monotone" true (a >= 0.0 && b >= a);
  let x, dt = Timer.time (fun () -> 42) in
  check int "time returns value" 42 x;
  check bool "time non-negative" true (dt >= 0.0)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "util"
    [
      ( "bitset",
        [
          Alcotest.test_case "basics" `Quick test_bitset_basics;
          Alcotest.test_case "bounds" `Quick test_bitset_bounds;
          Alcotest.test_case "zero capacity" `Quick test_bitset_zero_capacity;
          Alcotest.test_case "set ops" `Quick test_bitset_set_ops;
          Alcotest.test_case "inter_into aliasing" `Quick
            test_bitset_inter_into_aliasing;
          Alcotest.test_case "copy independent" `Quick
            test_bitset_copy_independent;
          Alcotest.test_case "full/clear/choose" `Quick
            test_bitset_full_clear_choose;
          Alcotest.test_case "iter order" `Quick test_bitset_iter_order;
          Alcotest.test_case "exists/forall" `Quick test_bitset_exists_forall;
          Alcotest.test_case "capacity mismatch" `Quick
            test_bitset_capacity_mismatch;
        ]
        @ qsuite
            [
              bitset_model_prop;
              bitset_iteration_consistency_prop;
              bitset_popcount_ops_prop;
              bitset_inter_cardinal_prop;
            ] );
      ( "metrics",
        [
          Alcotest.test_case "counters" `Quick test_metrics_counters;
          Alcotest.test_case "hit rate" `Quick test_metrics_hit_rate;
          Alcotest.test_case "histogram" `Quick test_metrics_histogram;
          Alcotest.test_case "render" `Quick test_metrics_render;
        ] );
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_prng_different_seeds;
          Alcotest.test_case "split" `Quick test_prng_split;
          Alcotest.test_case "copy" `Quick test_prng_copy;
          Alcotest.test_case "shuffle permutes" `Quick
            test_prng_shuffle_permutation;
          Alcotest.test_case "sample distinct" `Quick test_prng_sample;
          Alcotest.test_case "degenerate params" `Quick test_prng_degenerate;
        ]
        @ qsuite [ prng_bounds_prop; prng_float_prop ] );
      ( "stats",
        [
          Alcotest.test_case "mean/median" `Quick test_stats_mean_median;
          Alcotest.test_case "stddev" `Quick test_stats_stddev;
          Alcotest.test_case "min/max/percentile" `Quick
            test_stats_min_max_percentile;
          Alcotest.test_case "round_to" `Quick test_stats_round_to;
        ] );
      ( "text_table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "short rows padded" `Quick
            test_table_short_rows_padded;
          Alcotest.test_case "int rows" `Quick test_table_int_row;
          Alcotest.test_case "csv" `Quick test_table_csv;
        ] );
      ( "timer",
        [
          Alcotest.test_case "budget" `Quick test_timer_budget;
          Alcotest.test_case "monotone" `Quick test_timer_monotone;
        ] );
    ]
