module Bitset = Tsg_util.Bitset
module Graph = Tsg_graph.Graph
module Taxonomy = Tsg_taxonomy.Taxonomy
module Pattern = Tsg_core.Pattern
module Interest = Tsg_core.Interest
module Matcher = Tsg_iso.Matcher

type t = {
  taxonomy : Taxonomy.t;
  db_size : int;
  ids : int array;  (* per pattern, its id in the unsliced store *)
  patterns : Pattern.t array;
  distinct_labels : int array array;  (* per pattern, sorted distinct labels *)
  generalizing : Bitset.t array;  (* indexed by label id *)
  mentioning : Bitset.t array;  (* indexed by label id *)
  at_most_edges : Bitset.t array;  (* indexed by edge count, cumulative *)
  max_edges : int;
  at_most_labeled : Bitset.t array array;
      (* indexed by edge label, then by count k below the label's highest
         per-pattern count: patterns with at most k edges of that label *)
  by_support : int array;
  by_interest : (int * float) array option;
  trivial : Bitset.t;  (* node-less patterns: match any target *)
  plans : Matcher.compiled option array;  (* first-use slots *)
  texts : string option array;  (* first-use slots *)
}

(* [g]'s number of edges of each edge label below [labels] *)
let labeled_edge_counts ~labels g =
  let counts = Array.make labels 0 in
  Graph.fold_edges
    (fun _ _ l () -> if l >= 0 && l < labels then counts.(l) <- counts.(l) + 1)
    g ();
  counts

let cumulative_buckets ~n ~max_count count_of =
  let buckets = Array.init max_count (fun _ -> Bitset.create n) in
  for i = 0 to n - 1 do
    for k = count_of i to max_count - 1 do
      Bitset.set buckets.(k) i
    done
  done;
  buckets

let build ~taxonomy ?db ~db_size pattern_list =
  let patterns = Array.of_list pattern_list in
  let n = Array.length patterns in
  let labels = Taxonomy.label_count taxonomy in
  let distinct_labels =
    Array.map
      (fun (p : Pattern.t) ->
        let ls = Graph.distinct_node_labels p.Pattern.graph in
        List.iter
          (fun l ->
            if l < 0 || l >= labels then
              invalid_arg
                (Printf.sprintf
                   "Store.build: pattern label %d is not a taxonomy concept" l))
          ls;
        Array.of_list ls)
      patterns
  in
  let generalizing = Array.init labels (fun _ -> Bitset.create n) in
  let mentioning = Array.init labels (fun _ -> Bitset.create n) in
  Array.iteri
    (fun i ls ->
      Array.iter
        (fun l ->
          (* a query label hits patterns labeled with any of its ancestors:
             expand each pattern label over its descendant closure *)
          Bitset.iter
            (fun d -> Bitset.set generalizing.(d) i)
            (Taxonomy.descendant_set taxonomy l);
          Bitset.iter
            (fun a -> Bitset.set mentioning.(a) i)
            (Taxonomy.ancestor_set taxonomy l))
        ls)
    distinct_labels;
  let max_edges =
    Array.fold_left (fun acc p -> max acc (Pattern.edge_count p)) 0 patterns
  in
  let at_most_edges =
    cumulative_buckets ~n ~max_count:(max_edges + 1) (fun i ->
        Pattern.edge_count patterns.(i))
  in
  (* one past the highest edge label any pattern uses *)
  let edge_label_bound =
    Array.fold_left
      (fun acc (p : Pattern.t) ->
        Graph.fold_edges (fun _ _ l acc -> max acc (l + 1)) p.Pattern.graph acc)
      0 patterns
  in
  let counts =
    Array.map
      (fun (p : Pattern.t) ->
        labeled_edge_counts ~labels:edge_label_bound p.Pattern.graph)
      patterns
  in
  let at_most_labeled =
    Array.init edge_label_bound (fun l ->
        let max_count =
          Array.fold_left (fun acc c -> max acc c.(l)) 0 counts
        in
        cumulative_buckets ~n ~max_count (fun i -> counts.(i).(l)))
  in
  let by_support = Array.init n (fun i -> i) in
  Array.sort
    (fun a b ->
      let c =
        compare patterns.(b).Pattern.support_count
          patterns.(a).Pattern.support_count
      in
      if c <> 0 then c else compare a b)
    by_support;
  let by_interest =
    match db with
    | None -> None
    | Some db ->
      let freq = Interest.label_frequencies taxonomy db in
      let by_key = Hashtbl.create (2 * n) in
      Array.iter
        (fun (p : Pattern.t) ->
          Hashtbl.replace by_key (Pattern.key p) p.Pattern.support_count)
        patterns;
      let support_of g =
        Hashtbl.find_opt by_key (Tsg_gspan.Min_code.canonical_key g)
      in
      let scored =
        Array.mapi
          (fun i p -> (i, Interest.ratio taxonomy db ~freq ~support_of p))
          patterns
      in
      Array.sort
        (fun (a, ra) (b, rb) ->
          let c = compare rb ra in
          if c <> 0 then c else compare a b)
        scored;
      Some scored
  in
  let trivial = Bitset.create n in
  Array.iteri
    (fun i ls -> if Array.length ls = 0 then Bitset.set trivial i)
    distinct_labels;
  {
    taxonomy;
    db_size;
    ids = Array.init n (fun i -> i);
    patterns;
    distinct_labels;
    generalizing;
    mentioning;
    at_most_edges;
    max_edges;
    at_most_labeled;
    by_support;
    by_interest;
    trivial;
    plans = Array.make n None;
    texts = Array.make n None;
  }

let of_strings ~taxonomy ~edge_labels ?db sources =
  let node_labels = Taxonomy.labels taxonomy in
  let known = Taxonomy.label_count taxonomy in
  let sets =
    List.map
      (fun (path, contents) ->
        let patterns, size =
          Tsg_core.Pattern_io.parse ~file:path ~node_labels ~edge_labels
            contents
        in
        (* Pattern_io interns unseen names; anything past the taxonomy's
           label count is not a concept of the DAG *)
        List.iter
          (fun (p : Pattern.t) ->
            Array.iter
              (fun l ->
                if l >= known then
                  invalid_arg
                    (Printf.sprintf
                       "Store.load: %s uses label %s which is not in the \
                        taxonomy"
                       path
                       (Tsg_graph.Label.name node_labels l)))
              (Graph.node_labels p.Pattern.graph))
          patterns;
        (patterns, size))
      sources
  in
  let db_size = List.fold_left (fun acc (_, s) -> max acc s) 0 sets in
  build ~taxonomy ?db ~db_size (List.concat_map fst sets)

let load ~taxonomy ~edge_labels ?db paths =
  of_strings ~taxonomy ~edge_labels ?db
    (List.map (fun p -> (p, Tsg_util.Safe_io.read_file p)) paths)

let slice t ~keep =
  let n = Array.length t.patterns in
  let sel = ref [] in
  for i = n - 1 downto 0 do
    if keep i then sel := i :: !sel
  done;
  let sel = Array.of_list !sel in
  let remap = Hashtbl.create (2 * Array.length sel) in
  Array.iteri (fun j i -> Hashtbl.replace remap i j) sel;
  let kept = Array.to_list (Array.map (fun i -> t.patterns.(i)) sel) in
  (* rebuilding over the kept patterns (in order) yields local indexes
     whose orders are exactly the global ones filtered; interest ratios
     must NOT be recomputed over the slice — they depend on the full
     pattern set — so they are inherited from the parent instead *)
  let s = build ~taxonomy:t.taxonomy ~db_size:t.db_size kept in
  let by_interest =
    Option.map
      (fun scored ->
        Array.to_list scored
        |> List.filter_map (fun (i, r) ->
               Option.map (fun j -> (j, r)) (Hashtbl.find_opt remap i))
        |> Array.of_list)
      t.by_interest
  in
  { s with by_interest; ids = Array.map (fun i -> t.ids.(i)) sel }

let external_id t i = t.ids.(i)

let size t = Array.length t.patterns

let db_size t = t.db_size

let taxonomy t = t.taxonomy

let pattern t i = t.patterns.(i)

let patterns t = t.patterns

let empty_of t = Bitset.create (size t)

let generalizing t l =
  if l >= 0 && l < Array.length t.generalizing then t.generalizing.(l)
  else empty_of t

let mentioning t l =
  if l >= 0 && l < Array.length t.mentioning then t.mentioning.(l)
  else empty_of t

let with_at_most_edges t k =
  if k < 0 then empty_of t else t.at_most_edges.(min k t.max_edges)

let by_support t = t.by_support

let by_interest t = t.by_interest

let candidates t g =
  let n = size t in
  let labels = Taxonomy.label_count t.taxonomy in
  let qlabels = Graph.distinct_node_labels g in
  let qset = Bitset.create labels in
  let union = Bitset.create n in
  List.iter
    (fun l ->
      if l >= 0 && l < labels then begin
        Bitset.set qset l;
        Bitset.union_into ~dst:union union t.generalizing.(l)
      end)
    qlabels;
  Bitset.inter_into ~dst:union union (with_at_most_edges t (Graph.edge_count g));
  (* a match maps pattern edges injectively onto target edges of the same
     label, so no pattern has more edges of a label than [g] has *)
  let counts =
    labeled_edge_counts ~labels:(Array.length t.at_most_labeled) g
  in
  Array.iteri
    (fun l buckets ->
      if counts.(l) < Array.length buckets then
        Bitset.inter_into ~dst:union union buckets.(counts.(l)))
    t.at_most_labeled;
  (* every distinct pattern label must generalize some query label *)
  let out = Bitset.create n in
  Bitset.iter
    (fun i ->
      if
        Pattern.node_count t.patterns.(i) <= Graph.node_count g
        && Array.for_all
             (fun l ->
               Bitset.intersects (Taxonomy.descendant_set t.taxonomy l) qset)
             t.distinct_labels.(i)
      then Bitset.set out i)
    union;
  (* a pattern with no nodes occurs in every target *)
  Bitset.union_into ~dst:out out t.trivial;
  out

(* A slot is filled on first use, not at build time: a reload that is
   never queried pays nothing for it. Two domains racing on one slot both
   write equal immutable values, and a domain reads either [None] or a
   whole value, so the store stays safe to share. *)
let first_use slots i make =
  match slots.(i) with
  | Some v -> v
  | None ->
    let v = make () in
    slots.(i) <- Some v;
    v

let plan t i =
  first_use t.plans i (fun () -> Matcher.compile t.patterns.(i).Pattern.graph)

let reply_text t i =
  first_use t.texts i (fun () ->
      let p = t.patterns.(i) in
      Printf.sprintf "support %d/%d %s" p.Pattern.support_count t.db_size
        (Pattern.to_string ~names:(Taxonomy.labels t.taxonomy) p))
