module Graph = Tsg_graph.Graph
module Db = Tsg_graph.Db
module Label = Tsg_graph.Label
module Taxonomy = Tsg_taxonomy.Taxonomy
module Bitset = Tsg_util.Bitset
module Prng = Tsg_util.Prng
module Metrics = Tsg_util.Metrics
module Pattern = Tsg_core.Pattern
module Taxogram = Tsg_core.Taxogram
module Specialize = Tsg_core.Specialize
module Interest = Tsg_core.Interest
module Store = Tsg_query.Store
module Engine = Tsg_query.Engine
module Lru = Tsg_query.Lru
module Protocol = Tsg_query.Protocol
module Serve = Tsg_query.Serve
module Epoch = Tsg_query.Epoch

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let ints = Alcotest.(list int)

let g ~labels ~edges = Graph.build ~labels ~edges

let small_taxonomy () =
  Taxonomy.build
    ~names:[ "a"; "b"; "c"; "d"; "e"; "f" ]
    ~is_a:[ ("b", "a"); ("c", "a"); ("d", "b"); ("e", "b"); ("f", "c") ]

let go_excerpt () =
  Taxonomy.build
    ~names:
      [ "molecular_function"; "transporter"; "catalytic_activity"; "carrier";
        "cation_transporter"; "helicase"; "dna_helicase" ]
    ~is_a:
      [
        ("transporter", "molecular_function");
        ("catalytic_activity", "molecular_function");
        ("carrier", "transporter");
        ("cation_transporter", "transporter");
        ("helicase", "catalytic_activity");
        ("dna_helicase", "helicase");
      ]

let id t n = Taxonomy.id_of_name t n

let two_graph_db t =
  Db.of_list
    [
      g ~labels:[| id t "d"; id t "f" |] ~edges:[ (0, 1, 0) ];
      g ~labels:[| id t "e"; id t "f" |] ~edges:[ (0, 1, 0) ];
    ]

let mine ?(theta = 0.5) t db =
  let config =
    { Taxogram.min_support = theta; max_edges = Some 3;
      enhancements = Specialize.all_on }
  in
  (Taxogram.run (Taxogram.Spec.collect ~config ()) t db).Taxogram.patterns

let mined_store ?db:interest_db ?(theta = 0.5) t db =
  Store.build ~taxonomy:t ?db:interest_db ~db_size:(Db.size db)
    (mine ~theta t db)

let fresh_engine ?cache_capacity store =
  Engine.create ?cache_capacity ~metrics:(Metrics.create ()) store

(* --- Lru ------------------------------------------------------------------ *)

let test_lru_eviction () =
  let c = Lru.create ~capacity:2 in
  Lru.add c "a" 1;
  Lru.add c "b" 2;
  Lru.add c "c" 3;
  check bool "a evicted" false (Lru.mem c "a");
  check int "length" 2 (Lru.length c);
  check Alcotest.(list string) "mru order" [ "c"; "b" ] (Lru.keys c)

let test_lru_find_promotes () =
  let c = Lru.create ~capacity:2 in
  Lru.add c "a" 1;
  Lru.add c "b" 2;
  check (Alcotest.option int) "find a" (Some 1) (Lru.find c "a");
  Lru.add c "c" 3;
  (* b was least recently used after the find *)
  check bool "b evicted" false (Lru.mem c "b");
  check bool "a kept" true (Lru.mem c "a")

let test_lru_replace () =
  let c = Lru.create ~capacity:2 in
  Lru.add c "a" 1;
  Lru.add c "a" 10;
  check int "no duplicate" 1 (Lru.length c);
  check (Alcotest.option int) "updated" (Some 10) (Lru.find c "a")

let test_lru_disabled () =
  let c = Lru.create ~capacity:0 in
  Lru.add c "a" 1;
  check int "stays empty" 0 (Lru.length c);
  check (Alcotest.option int) "always misses" None (Lru.find c "a")

let test_lru_clear () =
  let c = Lru.create ~capacity:4 in
  List.iter (fun k -> Lru.add c k 0) [ "a"; "b"; "c" ];
  Lru.clear c;
  check int "cleared" 0 (Lru.length c);
  check Alcotest.(list string) "no keys" [] (Lru.keys c);
  Lru.add c "d" 1;
  check (Alcotest.option int) "usable after clear" (Some 1) (Lru.find c "d")

let lru_model_prop =
  (* against a naive list model of recency *)
  QCheck.Test.make ~name:"lru agrees with list model" ~count:200
    QCheck.(list (pair (int_bound 9) bool))
    (fun ops ->
      let cap = 3 in
      let c = Lru.create ~capacity:cap in
      let model = ref [] in
      List.iter
        (fun (k, is_add) ->
          let key = string_of_int k in
          if is_add then begin
            Lru.add c key k;
            model := (key, k) :: List.remove_assoc key !model;
            if List.length !model > cap then
              model := List.filteri (fun i _ -> i < cap) !model
          end
          else begin
            let expect = List.assoc_opt key !model in
            if Lru.find c key <> expect then raise Exit;
            match expect with
            | Some _ ->
              model := (key, List.assoc key !model)
                       :: List.remove_assoc key !model
            | None -> ()
          end)
        ops;
      List.map fst !model = Lru.keys c)

(* --- Store indexes -------------------------------------------------------- *)

let scan_generalizing t patterns l =
  (* patterns with a node label that is an ancestor of l *)
  List.filteri (fun _ _ -> true) patterns
  |> List.mapi (fun i p -> (i, p))
  |> List.filter_map (fun (i, (p : Pattern.t)) ->
         if
           List.exists
             (fun pl -> Taxonomy.is_ancestor t ~anc:pl l)
             (Graph.distinct_node_labels p.Pattern.graph)
         then Some i
         else None)

let scan_mentioning t patterns l =
  List.mapi (fun i p -> (i, p)) patterns
  |> List.filter_map (fun (i, (p : Pattern.t)) ->
         if
           List.exists
             (fun pl -> Taxonomy.is_ancestor t ~anc:l pl)
             (Graph.distinct_node_labels p.Pattern.graph)
         then Some i
         else None)

let test_store_indexes_small () =
  let t = small_taxonomy () in
  let db = two_graph_db t in
  let patterns = mine t db in
  let store = Store.build ~taxonomy:t ~db_size:(Db.size db) patterns in
  check int "store size" (List.length patterns) (Store.size store);
  check int "db size" 2 (Store.db_size store);
  for l = 0 to Taxonomy.label_count t - 1 do
    check ints
      (Printf.sprintf "generalizing %s" (Taxonomy.name t l))
      (scan_generalizing t patterns l)
      (Bitset.to_list (Store.generalizing store l));
    check ints
      (Printf.sprintf "mentioning %s" (Taxonomy.name t l))
      (scan_mentioning t patterns l)
      (Bitset.to_list (Store.mentioning store l))
  done;
  (* out-of-taxonomy labels hit nothing *)
  check ints "unknown label" [] (Bitset.to_list (Store.generalizing store 999));
  check ints "unknown label" [] (Bitset.to_list (Store.mentioning store 999))

let test_store_edge_buckets_and_support_order () =
  let t = small_taxonomy () in
  let db = two_graph_db t in
  let patterns = mine t db in
  let store = Store.build ~taxonomy:t ~db_size:(Db.size db) patterns in
  let all = List.mapi (fun i _ -> i) patterns in
  List.iter
    (fun k ->
      let expect =
        List.filter (fun i -> Pattern.edge_count (List.nth patterns i) <= k) all
      in
      check ints
        (Printf.sprintf "at most %d edges" k)
        expect
        (Bitset.to_list (Store.with_at_most_edges store k)))
    [ 0; 1; 2; 3; 99 ];
  let order = Array.to_list (Store.by_support store) in
  check int "order covers all" (List.length patterns) (List.length order);
  let rec descending = function
    | a :: (b :: _ as rest) ->
      (Store.pattern store a).Pattern.support_count
      >= (Store.pattern store b).Pattern.support_count
      && descending rest
    | _ -> true
  in
  check bool "support descending" true (descending order)

let test_store_rejects_foreign_labels () =
  let t = small_taxonomy () in
  let p =
    Pattern.make ~db_size:1
      (g ~labels:[| 99 |] ~edges:[])
      (Bitset.of_list 1 [ 0 ])
  in
  check bool "invalid label rejected" true
    (match Store.build ~taxonomy:t ~db_size:1 [ p ] with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_store_load_merges_files () =
  let t = small_taxonomy () in
  let db = two_graph_db t in
  let patterns = mine t db in
  let node_labels = Taxonomy.labels t in
  let edge_labels = Label.of_names [ "e0" ] in
  let file suffix patterns db_size =
    let path = Filename.temp_file "tsg_store" suffix in
    Tsg_core.Pattern_io.save path ~node_labels ~edge_labels ~db_size patterns;
    path
  in
  let f1 = file "a.pat" patterns 2 in
  let f2 = file "b.pat" [ List.hd patterns ] 5 in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove f1;
      Sys.remove f2)
    (fun () ->
      let store = Store.load ~taxonomy:t ~edge_labels [ f1; f2 ] in
      check int "patterns merged" (List.length patterns + 1) (Store.size store);
      check int "db size is max" 5 (Store.db_size store))

(* --- Engine --------------------------------------------------------------- *)

let test_contains_matches_brute_force_small () =
  let t = small_taxonomy () in
  let db = two_graph_db t in
  let engine = fresh_engine (mined_store t db) in
  Db.iteri
    (fun gid target ->
      let brute = Engine.contains_brute engine target in
      check ints
        (Printf.sprintf "graph %d" gid)
        brute
        (Engine.contains engine target);
      (* prefilter is sound: candidates is a superset of the answer *)
      let cands = Store.candidates (Engine.store engine) target in
      List.iter
        (fun i -> check bool "candidate superset" true (Bitset.mem cands i))
        brute)
    db

let test_contains_cache_hit () =
  let t = small_taxonomy () in
  let db = two_graph_db t in
  let engine = fresh_engine (mined_store t db) in
  let metrics = Engine.metrics engine in
  let hits = Metrics.counter metrics "cache.hits" in
  let target = g ~labels:[| id t "d"; id t "f" |] ~edges:[ (0, 1, 0) ] in
  let first = Engine.contains engine target in
  check int "cold miss" 0 (Metrics.value hits);
  let second = Engine.contains engine target in
  check ints "same answer" first second;
  check int "warm hit" 1 (Metrics.value hits);
  (* an isomorphic spelling shares the DFS-code cache key *)
  let twisted = g ~labels:[| id t "f"; id t "d" |] ~edges:[ (0, 1, 0) ] in
  check ints "isomorphic answer" first (Engine.contains engine twisted);
  check int "isomorphic hit" 2 (Metrics.value hits);
  check bool "hit rate" true (Engine.cache_hit_rate engine > 0.5)

let test_contains_cache_disabled () =
  let t = small_taxonomy () in
  let db = two_graph_db t in
  let engine = fresh_engine ~cache_capacity:0 (mined_store t db) in
  let target = g ~labels:[| id t "d"; id t "f" |] ~edges:[ (0, 1, 0) ] in
  let a = Engine.contains engine target in
  let b = Engine.contains engine target in
  check ints "still correct" a b;
  check int "no hits ever" 0
    (Metrics.value (Metrics.counter (Engine.metrics engine) "cache.hits"))

let test_by_label () =
  let t = go_excerpt () in
  let db =
    Db.of_list
      [
        g ~labels:[| id t "carrier"; id t "dna_helicase" |] ~edges:[ (0, 1, 0) ];
        g
          ~labels:[| id t "cation_transporter"; id t "helicase" |]
          ~edges:[ (0, 1, 0) ];
      ]
  in
  let store = mined_store ~theta:1.0 t db in
  let engine = fresh_engine store in
  (* the single mined pattern is transporter-helicase *)
  check int "one pattern" 1 (Store.size store);
  check ints "by transporter" [ 0 ] (Engine.by_label engine (id t "transporter"));
  check ints "by helicase" [ 0 ] (Engine.by_label engine (id t "helicase"));
  (* taxonomy-aware: the root generalizes both mentioned labels *)
  check ints "by molecular_function" [ 0 ]
    (Engine.by_label engine (id t "molecular_function"));
  (* a sibling specialization is not mentioned *)
  check ints "by dna_helicase" [] (Engine.by_label engine (id t "dna_helicase"));
  check ints "out of range" [] (Engine.by_label engine 999)

let test_top_k_support () =
  let t = small_taxonomy () in
  let db = two_graph_db t in
  let store = mined_store t db in
  let engine = fresh_engine store in
  let all = Engine.top_k engine ~k:max_int `Support in
  check int "all patterns" (Store.size store) (List.length all);
  let rec descending = function
    | (_, a) :: ((_, b) :: _ as rest) -> a >= b && descending rest
    | _ -> true
  in
  check bool "scores descending" true (descending all);
  List.iter
    (fun (i, s) ->
      check (Alcotest.float 1e-9) "score is support"
        (Store.pattern store i).Pattern.support s)
    all;
  check int "k truncates" 1 (List.length (Engine.top_k engine ~k:1 `Support));
  check int "k zero" 0 (List.length (Engine.top_k engine ~k:0 `Support))

let test_top_k_interest () =
  let t = small_taxonomy () in
  let db = two_graph_db t in
  let store = mined_store ~db t db in
  let engine = fresh_engine store in
  let ranked = Engine.top_k engine ~k:max_int `Interest in
  check int "all ranked" (Store.size store) (List.length ranked);
  let freq = Interest.label_frequencies t db in
  List.iter
    (fun (i, s) ->
      check (Alcotest.float 1e-9) "score is interest ratio"
        (Interest.ratio t db ~freq (Store.pattern store i))
        s)
    ranked;
  let rec descending = function
    | (_, a) :: ((_, b) :: _ as rest) -> a >= b && descending rest
    | _ -> true
  in
  check bool "descending" true (descending ranked);
  (* without the database the ranking is unavailable *)
  let engine = fresh_engine (mined_store t db) in
  check bool "needs db" true
    (match Engine.top_k engine ~k:1 `Interest with
    | exception Failure _ -> true
    | _ -> false)

(* --- Protocol ------------------------------------------------------------- *)

let test_protocol_parse () =
  let t = small_taxonomy () in
  let edge_labels = Label.of_names [ "e0"; "e1" ] in
  let parse s = Protocol.parse ~taxonomy:t ~edge_labels s in
  (match[@warning "-4"] parse "contains d,f 0-1" with
  | Some (Protocol.Contains g) ->
    check int "nodes" 2 (Graph.node_count g);
    check int "edges" 1 (Graph.edge_count g);
    check int "label 0" (id t "d") (Graph.node_label g 0)
  | _ -> Alcotest.fail "expected contains");
  (match[@warning "-4"] parse "contains d -" with
  | Some (Protocol.Contains g) ->
    check int "single node" 1 (Graph.node_count g);
    check int "edgeless" 0 (Graph.edge_count g)
  | _ -> Alcotest.fail "expected edgeless contains");
  (match[@warning "-4"] parse "contains d,f,e 0-1/e1,1-2" with
  | Some (Protocol.Contains g) ->
    check (Alcotest.option int) "edge label" (Some 1) (Graph.edge_label g 0 1);
    check (Alcotest.option int) "default label" (Some 0) (Graph.edge_label g 1 2)
  | _ -> Alcotest.fail "expected labeled contains");
  (match[@warning "-4"] parse "by-label b" with
  | Some (Protocol.By_label l) -> check int "label id" (id t "b") l
  | _ -> Alcotest.fail "expected by-label");
  check bool "top-k support" true
    (parse "top-k 5 support" = Some (Protocol.Top_k (5, `Support)));
  check bool "top-k interest" true
    (parse "top-k 3 interest" = Some (Protocol.Top_k (3, `Interest)));
  check bool "stats" true (parse "stats" = Some Protocol.Stats);
  check bool "quit" true (parse "quit" = Some Protocol.Quit);
  check bool "blank" true (parse "   " = None);
  check bool "comment" true (parse "# hello" = None)

let test_protocol_errors () =
  let t = small_taxonomy () in
  let edge_labels = Label.create () in
  let expect_error s =
    match[@warning "-4"] Protocol.parse ~taxonomy:t ~edge_labels s with
    | exception Protocol.Parse_error _ -> ()
    | _ -> Alcotest.fail ("expected Parse_error for " ^ s)
  in
  expect_error "contains z 0-1";
  expect_error "contains d,f 0_1";
  expect_error "contains d,f 0-5";
  expect_error "contains d,f 0-0";
  expect_error "by-label nosuch";
  expect_error "top-k x support";
  expect_error "top-k -1 support";
  expect_error "top-k 5 folly";
  expect_error "frobnicate";
  (* unseen edge labels are interned, not rejected: the query graph is a
     target, not a pattern *)
  match[@warning "-4"] Protocol.parse ~taxonomy:t ~edge_labels "contains d,f 0-1/novel" with
  | Some (Protocol.Contains _) ->
    check bool "interned" true (Label.mem edge_labels "novel")
  | _ -> Alcotest.fail "expected contains"

let test_protocol_format_roundtrip () =
  let t = small_taxonomy () in
  let edge_labels = Label.of_names [ "e0"; "e1"; "e2" ] in
  let names = Taxonomy.labels t in
  List.iter
    (fun graph ->
      let spec = Protocol.format_graph ~names ~edge_labels graph in
      match[@warning "-4"] Protocol.parse ~taxonomy:t ~edge_labels ("contains " ^ spec) with
      | Some (Protocol.Contains g) ->
        check bool ("round-trip " ^ spec) true (Graph.equal graph g)
      | _ -> Alcotest.fail ("no parse for " ^ spec))
    [
      g ~labels:[| id t "d"; id t "f" |] ~edges:[ (0, 1, 0) ];
      g ~labels:[| id t "a" |] ~edges:[];
      g
        ~labels:[| id t "b"; id t "c"; id t "e" |]
        ~edges:[ (0, 1, 2); (1, 2, 0); (0, 2, 1) ];
    ]

(* --- Epoch ----------------------------------------------------------------- *)

let test_epoch_roundtrip_and_order () =
  let e = Epoch.make ~seq:7L ~sum:0xffL in
  check Alcotest.string "wire format" "7.00000000000000ff" (Epoch.to_string e);
  (match Epoch.of_string (Epoch.to_string e) with
  | Some e' -> check bool "of_string round-trips" true (Epoch.equal e e')
  | None -> Alcotest.fail "wire format did not parse back");
  check Alcotest.string "zero epoch" "0.0000000000000000"
    (Epoch.to_string Epoch.zero);
  check bool "garbage rejected" true
    (Epoch.of_string "nope" = None
    && Epoch.of_string "1" = None
    && Epoch.of_string "1.xyz" = None);
  check bool "sequence dominates the order" true
    (Epoch.compare (Epoch.make ~seq:2L ~sum:0L) (Epoch.make ~seq:1L ~sum:99L)
    > 0);
  check bool "checksum breaks sequence ties" true
    (Epoch.compare (Epoch.make ~seq:1L ~sum:2L) (Epoch.make ~seq:1L ~sum:1L)
    > 0)

let test_epoch_stamp_verify_payload () =
  let body = "# a comment\npattern lines\n" in
  let stamped = Epoch.stamp ~seq:42L body in
  check bool "stamped artifact detected" true (Epoch.has_stamp stamped);
  check bool "plain content has no stamp" true (not (Epoch.has_stamp body));
  check bool "stamp sequence recovered" true (Epoch.stamp_seq stamped = Some 42L);
  check Alcotest.string "payload strips the stamp" body (Epoch.payload stamped);
  check Alcotest.string "payload of unstamped content is the identity" body
    (Epoch.payload body);
  (match Epoch.verify_stamp stamped with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  check bool "unstamped content verifies trivially" true
    (Epoch.verify_stamp body = Ok ());
  (* flip one payload byte: the stamp fingerprint must catch it *)
  let torn = Bytes.of_string stamped in
  Bytes.set torn (Bytes.length torn - 2) 'X';
  (match Epoch.verify_stamp (Bytes.to_string torn) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "tampered payload passed verification");
  (* of_sources: newest stamp sequence, content-sensitive checksum *)
  let e =
    Epoch.of_sources
      [ ("a", Epoch.stamp ~seq:3L "x"); ("b", Epoch.stamp ~seq:9L "y") ]
  in
  check bool "sequence is the newest stamp" true (Epoch.seq e = 9L);
  let e' =
    Epoch.of_sources
      [ ("a", Epoch.stamp ~seq:3L "x"); ("b", Epoch.stamp ~seq:9L "z") ]
  in
  check bool "changed bytes change the epoch" true (not (Epoch.equal e e'));
  check bool "unstamped sources fall back to sequence 0" true
    (Epoch.seq (Epoch.of_sources [ ("a", "x") ]) = 0L)

(* --- Serve end-to-end ------------------------------------------------------ *)

let run_serve ?domains ?epoch store requests =
  let edge_labels = Label.of_names [ "e0" ] in
  let metrics = Metrics.create () in
  let engine = Engine.create ?epoch ~metrics store in
  let req_path = Filename.temp_file "tsg_serve" ".req" in
  let out_path = Filename.temp_file "tsg_serve" ".out" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove req_path;
      Sys.remove out_path)
    (fun () ->
      let oc = open_out req_path in
      output_string oc requests;
      close_out oc;
      let ic = open_in req_path and oc = open_out out_path in
      let outcome =
        Fun.protect
          ~finally:(fun () ->
            close_in ic;
            close_out oc)
          (fun () ->
            let exec = Tsg_util.Pool.Exec.create ?domains () in
            Serve.run ~exec ~engine ~edge_labels ic oc)
      in
      let ic = open_in out_path in
      let text =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      (outcome, text, metrics))

let test_serve_end_to_end () =
  let t = go_excerpt () in
  let db =
    Db.of_list
      [
        g ~labels:[| id t "carrier"; id t "dna_helicase" |] ~edges:[ (0, 1, 0) ];
        g
          ~labels:[| id t "cation_transporter"; id t "helicase" |]
          ~edges:[ (0, 1, 0) ];
      ]
  in
  let store = mined_store ~theta:1.0 t db in
  let requests =
    String.concat "\n"
      [
        "# warm-up";
        "contains carrier,dna_helicase 0-1";
        "contains dna_helicase,carrier 1-0";
        "by-label transporter";
        "top-k 2 support";
        "top-k 1 interest";
        "bogus";
        "stats";
        "quit";
        "";
      ]
  in
  let outcome, text, metrics = run_serve ~domains:2 store requests in
  check int "requests" 8 outcome.Serve.requests;
  check int "errors" 2 outcome.Serve.errors;
  check bool "quit seen" true outcome.Serve.quit;
  let lines = String.split_on_char '\n' text in
  let oks = List.filter (fun l -> l = "ok 1") lines in
  (* two contains, one by-label, one top-k *)
  check int "four single-result responses" 4 (List.length oks);
  check bool "pattern line present" true
    (List.exists
       (fun l ->
         l = "p 0 support 2/2 pattern[sup=2 (1.00)] 0:transporter 1:helicase \
              (0-1)")
       lines);
  let has_prefix p l =
    String.length l >= String.length p && String.sub l 0 (String.length p) = p
  in
  (* stable machine-readable error codes: top-k interest without a db is
     UNAVAILABLE, a malformed request is BADREQ *)
  check bool "interest error coded UNAVAILABLE" true
    (List.exists (has_prefix "error UNAVAILABLE") lines);
  check bool "bogus request coded BADREQ" true
    (List.exists (has_prefix "error BADREQ") lines);
  check bool "stats markers" true
    (List.mem "begin stats" lines && List.mem "end stats" lines);
  (* the second (isomorphic) contains was served from the cache *)
  check int "cache hit recorded" 1
    (Metrics.value (Metrics.counter metrics "cache.hits"))

let test_serve_parallel_matches_sequential () =
  let t = small_taxonomy () in
  let db = two_graph_db t in
  let store = mined_store t db in
  let names = Taxonomy.labels t in
  let edge_labels = Label.of_names [ "e0" ] in
  let requests =
    (Db.to_list db
    |> List.map (fun graph ->
           "contains " ^ Protocol.format_graph ~names ~edge_labels graph))
    @ [ "by-label b"; "top-k 10 support" ]
  in
  let text = String.concat "\n" (requests @ [ "" ]) in
  let _, sequential, _ = run_serve ~domains:1 store text in
  let _, parallel, _ = run_serve ~domains:4 store text in
  check Alcotest.string "responses identical in order" sequential parallel

let test_serve_epoch_pin () =
  let t = small_taxonomy () in
  let db = two_graph_db t in
  let store = mined_store t db in
  let epoch = Epoch.make ~seq:5L ~sum:0xabcdL in
  let e = Epoch.to_string epoch in
  let has_prefix p l =
    String.length l >= String.length p && String.sub l 0 (String.length p) = p
  in
  let has_suffix s l =
    String.length l >= String.length s
    && String.sub l (String.length l - String.length s) (String.length s) = s
  in
  let requests =
    String.concat "\n"
      [
        "epoch";
        Printf.sprintf "at %s top-k 1 support" e;
        "at 4.0000000000000000 top-k 1 support";
        "health";
        "quit";
        "";
      ]
  in
  let outcome, text, metrics = run_serve ~epoch store requests in
  let lines = String.split_on_char '\n' text in
  check bool "epoch verb reports the serving epoch" true
    (List.mem (Printf.sprintf "ok epoch %s" e) lines);
  check bool "matching pin is answered" true
    (List.exists (has_prefix "ok 1") lines);
  check bool "mismatched pin answers STALE_EPOCH, computing nothing" true
    (List.exists (has_prefix "error STALE_EPOCH") lines);
  check bool "health carries the epoch" true
    (List.exists
       (fun l -> has_prefix "ok health" l && has_suffix (" epoch " ^ e) l)
       lines);
  check int "the stale pin is the only error" 1 outcome.Serve.errors;
  check int "stale pins counted" 1
    (Metrics.value (Metrics.counter metrics "serve.stale_epoch"))

(* reply bytes recorded at a commit before the store kept plans and reply
   text; the router's merge parses these lines, so any change to them is
   a wire change *)
let test_serve_reply_bytes_pinned () =
  let t = small_taxonomy () in
  let db = two_graph_db t in
  let engine = fresh_engine (mined_store ~db t db) in
  let edge_labels = Label.of_names [ "e0" ] in
  let p0 = "p 0 support 2/2 pattern[sup=2 (1.00)] 0:b 1:f (0-1)"
  and p1 = "p 1 support 1/2 pattern[sup=1 (0.50)] 0:d 1:f (0-1)"
  and p2 = "p 2 support 1/2 pattern[sup=1 (0.50)] 0:e 1:f (0-1)" in
  List.iter
    (fun (request, reply) ->
      let q = Option.get (Protocol.parse ~taxonomy:t ~edge_labels request) in
      check Alcotest.string request (String.concat "\n" reply)
        (Serve.answer engine q))
    [
      ("contains d,f 0-1", [ "ok 2"; p0; p1 ]);
      ("contains e,f,d 0-1,1-2", [ "ok 3"; p0; p1; p2 ]);
      ("contains d,f,e 0-1/e1,1-2", [ "ok 2"; p0; p2 ]);
      ("contains d,f 0-1/e1", [ "ok 0" ]);
      ("contains a,b 0-1", [ "ok 0" ]);
      ("by-label b", [ "ok 3"; p0; p1; p2 ]);
      ( "top-k 2 support",
        [
          "ok 2";
          "p 0 score 1.0000 support 2/2 pattern[sup=2 (1.00)] 0:b 1:f (0-1)";
          "p 1 score 0.5000 support 1/2 pattern[sup=1 (0.50)] 0:d 1:f (0-1)";
        ] );
      ( "top-k 10 interest",
        [
          "ok 3";
          "p 0 score 1.0000 support 2/2 pattern[sup=2 (1.00)] 0:b 1:f (0-1)";
          "p 1 score 1.0000 support 1/2 pattern[sup=1 (0.50)] 0:d 1:f (0-1)";
          "p 2 score 1.0000 support 1/2 pattern[sup=1 (0.50)] 0:e 1:f (0-1)";
        ] );
    ]

(* --- properties: engine = brute force over random instances ---------------- *)

let max_edge_labels = 4

let random_instance rng =
  let concepts = 4 + Prng.int rng 6 in
  let tax =
    Tsg_taxonomy.Synth_taxonomy.generate rng
      {
        concepts;
        relationships = concepts + Prng.int rng 4;
        depth = 2 + Prng.int rng 3;
      }
  in
  let nlabels = Taxonomy.label_count tax in
  let elabels = 2 + Prng.int rng (max_edge_labels - 1) in
  let ngraphs = 3 + Prng.int rng 3 in
  let graphs =
    List.init ngraphs (fun _ ->
        let n = 2 + Prng.int rng 4 in
        let labels = Array.init n (fun _ -> Prng.int rng nlabels) in
        let edges = ref [] in
        for v = 1 to n - 1 do
          edges := (v, Prng.int rng v, Prng.int rng elabels) :: !edges
        done;
        g ~labels ~edges:!edges)
  in
  (tax, Db.of_list graphs)

(* the DB graphs, and each with one edge removed and with one edge
   relabeled: these hold exactly as many edges of a label as some pattern,
   or one fewer, which is where the edge-label count prefilter cuts *)
let queries rng db =
  List.concat_map
    (fun target ->
      let labels = Graph.node_labels target in
      let edges = Array.to_list (Graph.edges target) in
      let variant k edit =
        g ~labels
          ~edges:
            (List.concat (List.mapi (fun i e -> if i = k then edit e else [ e ]) edges))
      in
      let relabel (u, v, l) =
        [ (u, v, (l + 1 + Prng.int rng (max_edge_labels - 1)) mod max_edge_labels) ]
      in
      target
      :: List.concat
           (List.mapi
              (fun k _ -> [ variant k (fun _ -> []); variant k relabel ])
              edges))
    (Db.to_list db)

let arb_instance =
  QCheck.make QCheck.Gen.(pair (int_bound 1_000_000) (int_bound 2))

let theta_of = function 0 -> 1.0 | 1 -> 0.5 | _ -> 0.34

let contains_equals_brute_prop =
  QCheck.Test.make ~name:"contains (index + cache) = brute-force iso scan"
    ~count:60 arb_instance (fun (seed, k) ->
      let rng = Prng.of_int seed in
      let tax, db = random_instance rng in
      let engine = fresh_engine (mined_store ~theta:(theta_of k) tax db) in
      List.for_all
        (fun target ->
          Engine.contains engine target = Engine.contains_brute engine target
          (* repeat: the cached answer must be identical *)
          && Engine.contains engine target = Engine.contains_brute engine target)
        (queries rng db))

let by_label_equals_scan_prop =
  QCheck.Test.make ~name:"by-label = direct descendant scan" ~count:60
    arb_instance (fun (seed, k) ->
      let rng = Prng.of_int seed in
      let tax, db = random_instance rng in
      let patterns = mine ~theta:(theta_of k) tax db in
      let engine =
        fresh_engine
          (Store.build ~taxonomy:tax ~db_size:(Db.size db) patterns)
      in
      List.for_all
        (fun l -> Engine.by_label engine l = scan_mentioning tax patterns l)
        (List.init (Taxonomy.label_count tax) (fun i -> i)))

let candidates_sound_prop =
  QCheck.Test.make ~name:"index prefilter never drops a true match" ~count:60
    arb_instance (fun (seed, k) ->
      let rng = Prng.of_int seed in
      let tax, db = random_instance rng in
      let store = mined_store ~theta:(theta_of k) tax db in
      let engine = fresh_engine store in
      List.for_all
        (fun target ->
          let cands = Store.candidates store target in
          List.for_all
            (fun i -> Bitset.mem cands i)
            (Engine.contains_brute engine target))
        (queries rng db))

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "query"
    [
      ( "lru",
        [
          Alcotest.test_case "eviction" `Quick test_lru_eviction;
          Alcotest.test_case "find promotes" `Quick test_lru_find_promotes;
          Alcotest.test_case "replace" `Quick test_lru_replace;
          Alcotest.test_case "capacity 0" `Quick test_lru_disabled;
          Alcotest.test_case "clear" `Quick test_lru_clear;
        ]
        @ qsuite [ lru_model_prop ] );
      ( "store",
        [
          Alcotest.test_case "inverted indexes" `Quick test_store_indexes_small;
          Alcotest.test_case "edge buckets + support order" `Quick
            test_store_edge_buckets_and_support_order;
          Alcotest.test_case "foreign labels rejected" `Quick
            test_store_rejects_foreign_labels;
          Alcotest.test_case "load merges files" `Quick
            test_store_load_merges_files;
        ] );
      ( "engine",
        [
          Alcotest.test_case "contains = brute force" `Quick
            test_contains_matches_brute_force_small;
          Alcotest.test_case "cache hits" `Quick test_contains_cache_hit;
          Alcotest.test_case "cache disabled" `Quick
            test_contains_cache_disabled;
          Alcotest.test_case "by-label" `Quick test_by_label;
          Alcotest.test_case "top-k support" `Quick test_top_k_support;
          Alcotest.test_case "top-k interest" `Quick test_top_k_interest;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "parse" `Quick test_protocol_parse;
          Alcotest.test_case "errors" `Quick test_protocol_errors;
          Alcotest.test_case "format round-trip" `Quick
            test_protocol_format_roundtrip;
        ] );
      ( "epoch",
        [
          Alcotest.test_case "wire format round-trip and order" `Quick
            test_epoch_roundtrip_and_order;
          Alcotest.test_case "stamp, verify, payload" `Quick
            test_epoch_stamp_verify_payload;
        ] );
      ( "serve",
        [
          Alcotest.test_case "end to end" `Quick test_serve_end_to_end;
          Alcotest.test_case "parallel = sequential" `Quick
            test_serve_parallel_matches_sequential;
          Alcotest.test_case "epoch pin" `Quick test_serve_epoch_pin;
          Alcotest.test_case "reply bytes pinned" `Quick
            test_serve_reply_bytes_pinned;
        ] );
      ( "properties",
        qsuite
          [
            contains_equals_brute_prop;
            by_label_equals_scan_prop;
            candidates_sound_prop;
          ] );
    ]
