module Graph = Tsg_graph.Graph
module Db = Tsg_graph.Db
module Bitset = Tsg_util.Bitset

type embedding = { graph_id : int; map : int array }

type pattern = {
  code : Dfs_code.t;
  graph : Tsg_graph.Graph.t;
  support_set : Bitset.t;
  support : int;
  embeddings : embedding list;
}

(* --- count-first rightmost-path extension ------------------------------- *)

(* A candidate extension of a code is one DFS edge: backward from the
   rightmost node r to rightmost-path node i over edge label le, or
   forward from path node i over le to a new node labelled lw. Given the
   code, (i, direction, le, lw) fixes the edge, so a candidate is keyed
   by those four packed into one int against the database's label
   ranges: (2i + forward) * edge_span + le - edge_lo, then times
   node_span plus lw - node_lo (backward keys use lw = node_lo). *)
type ranges = {
  node_lo : int;
  node_span : int;
  edge_lo : int;
  edge_span : int;
}

let ranges_of db =
  let nlo = ref max_int and nhi = ref min_int in
  let elo = ref max_int and ehi = ref min_int in
  Db.iteri
    (fun _ g ->
      for v = 0 to Graph.node_count g - 1 do
        let l = Graph.node_label g v in
        nlo := min !nlo l;
        nhi := max !nhi l
      done;
      Graph.fold_edges
        (fun _ _ l () ->
          elo := min !elo l;
          ehi := max !ehi l)
        g ())
    db;
  let span lo hi = if lo > hi then (0, 1) else (lo, hi - lo + 1) in
  let node_lo, node_span = span !nlo !nhi in
  let edge_lo, edge_span = span !elo !ehi in
  { node_lo; node_span; edge_lo; edge_span }

let key rg ~anchor ~le ~lw =
  (((anchor * rg.edge_span) + le - rg.edge_lo) * rg.node_span) + lw - rg.node_lo

let edge_of_key rg code ~r ~nodes key =
  let lw = (key mod rg.node_span) + rg.node_lo in
  let rest = key / rg.node_span in
  let le = (rest mod rg.edge_span) + rg.edge_lo in
  let anchor = rest / rg.edge_span in
  let i = anchor / 2 in
  if anchor land 1 = 0 then
    {
      Dfs_code.from_i = r;
      to_i = i;
      from_label = Dfs_code.label_of code r;
      edge_label = le;
      to_label = Dfs_code.label_of code i;
    }
  else
    {
      Dfs_code.from_i = i;
      to_i = nodes;
      from_label = Dfs_code.label_of code i;
      edge_label = le;
      to_label = lw;
    }

(* Per-domain scratch for one extension step. [table] is an
   open-addressing hash of candidate keys to slots (-1 = empty, power-of-
   two size, at most half full); per slot, [count] is the number of
   distinct graphs seen so far, [last] the graph id counted last —
   embeddings arrive in graph-id order, so one stamp suffices — and
   [kept] the slot's index among the kept extensions, or -1. The
   candidate trace records, in traversal order, each candidate's slot and
   (forward only) its new node, and [run_end] where each parent
   embedding's run of candidates ends: the second walk replays the trace
   instead of re-walking the graphs. Live only inside one {!extensions}
   call, so recursion and nested mining on the same domain reuse it. *)
type scratch = {
  mutable table : int array;
  mutable slot_key : int array;
  mutable slot_pos : int array;
  mutable count : int array;
  mutable last : int array;
  mutable kept : int array;
  mutable slots : int;
  mutable cand_slot : int array;
  mutable cand_node : int array;
  mutable cands : int;
  mutable run_end : int array;
}

let scratch_key : scratch Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      {
        table = Array.make 64 (-1);
        slot_key = Array.make 32 0;
        slot_pos = Array.make 32 0;
        count = Array.make 32 0;
        last = Array.make 32 0;
        kept = Array.make 32 0;
        slots = 0;
        cand_slot = Array.make 1024 0;
        cand_node = Array.make 1024 0;
        cands = 0;
        run_end = Array.make 256 0;
      })

let grown a = Array.append a (Array.make (Array.length a) 0)

let hash key =
  let h = key * 0x2545F4914F6CDD1D in
  h lxor (h lsr 29)

let rec probe table (slot_key : int array) (key : int) mask p =
  let k = table.(p) in
  if k < 0 || slot_key.(k) = key then p
  else probe table slot_key key mask ((p + 1) land mask)

let rehash s =
  let table = Array.make (2 * Array.length s.table) (-1) in
  let mask = Array.length table - 1 in
  for k = 0 to s.slots - 1 do
    let key = s.slot_key.(k) in
    let p = probe table s.slot_key key mask (hash key land mask) in
    table.(p) <- k;
    s.slot_pos.(k) <- p
  done;
  s.table <- table

let slot_of s key =
  let mask = Array.length s.table - 1 in
  let p = probe s.table s.slot_key key mask (hash key land mask) in
  let k = s.table.(p) in
  if k >= 0 then k
  else begin
    let k = s.slots in
    if k = Array.length s.slot_key then begin
      s.slot_key <- grown s.slot_key;
      s.slot_pos <- grown s.slot_pos;
      s.count <- grown s.count;
      s.last <- grown s.last;
      s.kept <- grown s.kept
    end;
    s.table.(p) <- k;
    s.slot_key.(k) <- key;
    s.slot_pos.(k) <- p;
    s.count.(k) <- 0;
    s.last.(k) <- -1;
    s.slots <- k + 1;
    if 2 * s.slots > Array.length s.table then rehash s;
    k
  end

(* count one candidate towards its edge's support and append it to the
   trace *)
let tally s gid key node =
  let k = slot_of s key in
  if s.last.(k) <> gid then begin
    s.last.(k) <- gid;
    s.count.(k) <- s.count.(k) + 1
  end;
  let c = s.cands in
  if c = Array.length s.cand_slot then begin
    s.cand_slot <- grown s.cand_slot;
    s.cand_node <- grown s.cand_node
  end;
  s.cand_slot.(c) <- k;
  s.cand_node.(c) <- node;
  s.cands <- c + 1

(* Typed at [int] on purpose: unannotated, these two generalize to ['a],
   and every candidate then pays a [caml_equal] call per comparison and
   generic (float-array-checking) reads per element. *)
let mapped (map : int array) (w : int) =
  let rec go j = j < Array.length map && (map.(j) = w || go (j + 1)) in
  go 0

let neighbor_index (adj : (int * int) array) (v : int) =
  let rec go j =
    if j = Array.length adj then -1
    else if fst adj.(j) = v then j
    else go (j + 1)
  in
  go 0

(* walk 1: tally every candidate of every parent embedding, in the
   traversal order the embedding lists must keep — per embedding,
   backward targets ascending, then forward anchors rightmost first,
   neighbours in adjacency order *)
let reset s =
  for k = 0 to s.slots - 1 do
    s.table.(s.slot_pos.(k)) <- -1
  done;
  s.slots <- 0;
  s.cands <- 0

let count_candidates s rg db ~r ~back ~rpath embeddings =
  reset s;
  let rec walk e = function
    | [] -> ()
    | emb :: rest ->
      let g = Db.get db emb.graph_id and gid = emb.graph_id and map = emb.map in
      let adj = Graph.neighbors g map.(r) in
      for b = 0 to Array.length back - 1 do
        let i = back.(b) in
        let j = neighbor_index adj map.(i) in
        if j >= 0 then
          tally s gid
            (key rg ~anchor:(2 * i) ~le:(snd adj.(j)) ~lw:rg.node_lo)
            (-1)
      done;
      for a = 0 to Array.length rpath - 1 do
        let i = rpath.(a) in
        let nbrs = Graph.neighbors g map.(i) in
        for j = 0 to Array.length nbrs - 1 do
          let w, le = nbrs.(j) in
          if not (mapped map w) then
            tally s gid
              (key rg ~anchor:((2 * i) + 1) ~le ~lw:(Graph.node_label g w))
              w
        done
      done;
      if e = Array.length s.run_end then s.run_end <- grown s.run_end;
      s.run_end.(e) <- s.cands;
      walk (e + 1) rest
  in
  walk 0 embeddings

let extend emb w =
  let n = Array.length emb.map in
  let map = Array.make (n + 1) w in
  Array.blit emb.map 0 map 0 n;
  { graph_id = emb.graph_id; map }

(* The frequent, minimal one-edge extensions of [code], in edge order,
   each with its embeddings (parent order, then traversal order) and
   support set. Support is counted before any embedding is built; only
   the kept extensions' embeddings are built, by replaying the trace. *)
let extensions s rg ~min_support db code embeddings =
  let rpath = Array.of_list (Dfs_code.rightmost_path code) in
  let r = rpath.(0) in
  let nodes = Dfs_code.node_count code in
  let back =
    Array.of_list
      (List.filter
         (fun i -> not (Dfs_code.has_edge code r i))
         (List.sort compare (List.tl (Array.to_list rpath))))
  in
  count_candidates s rg db ~r ~back ~rpath embeddings;
  let frequent = ref [] in
  for k = s.slots - 1 downto 0 do
    s.kept.(k) <- -1;
    if s.count.(k) >= min_support then
      frequent := (edge_of_key rg code ~r ~nodes s.slot_key.(k), k) :: !frequent
  done;
  let kept =
    List.sort (fun (a, _) (b, _) -> Dfs_code.compare_edge a b) !frequent
    |> List.filter_map (fun (edge, k) ->
           let code' = Array.append code [| edge |] in
           if Min_code.is_min code' then Some (code', k) else None)
    |> Array.of_list
  in
  let n = Array.length kept in
  if n = 0 then []
  else begin
    Array.iteri (fun j (_, k) -> s.kept.(k) <- j) kept;
    let embs = Array.make n [] in
    let sets = Array.init n (fun _ -> Bitset.create (Db.size db)) in
    let c = ref 0 in
    List.iteri
      (fun e emb ->
        let stop = s.run_end.(e) in
        while !c < stop do
          let j = s.kept.(s.cand_slot.(!c)) in
          if j >= 0 then begin
            let w = s.cand_node.(!c) in
            Bitset.set sets.(j) emb.graph_id;
            embs.(j) <- (if w < 0 then emb else extend emb w) :: embs.(j)
          end;
          incr c
        done)
      embeddings;
    List.init n (fun j -> (fst kept.(j), List.rev embs.(j), sets.(j)))
  end

(* explore one seed's rightmost-path extension subtree; [grow] is only
   entered with a frequent, minimal code *)
let explore_subtree ~max_edges ~min_support rg db root_edge root_embs root_set
    report =
  let s = Domain.DLS.get scratch_key in
  let rec grow code embeddings support_set =
    report
      {
        code;
        graph = Dfs_code.to_graph code;
        support_set;
        support = Bitset.cardinal support_set;
        embeddings;
      };
    if Array.length code < max_edges then
      List.iter
        (fun (code', embs, set) -> grow code' embs set)
        (extensions s rg ~min_support db code embeddings)
  in
  grow [| root_edge |] root_embs root_set

(* --- seeds ----------------------------------------------------------- *)

(* A one-edge seed (from, edge, to), from <= to by id, is the key of a
   forward extension anchored at from - node_lo; so int order is seed
   order. *)
let seed_key rg ~la ~le ~lb = key rg ~anchor:(la - rg.node_lo) ~le ~lw:lb

let seed_of_key rg k =
  let lb = (k mod rg.node_span) + rg.node_lo in
  let rest = k / rg.node_span in
  ((rest / rg.edge_span) + rg.node_lo, (rest mod rg.edge_span) + rg.edge_lo, lb)

(* walk 1 over every database edge: tally its seed's distinct-graph
   support and trace its slot, allocating nothing per edge *)
let count_seeds s rg db =
  reset s;
  Db.iteri
    (fun gid g ->
      Graph.fold_edges
        (fun u v le () ->
          let lu = Graph.node_label g u and lv = Graph.node_label g v in
          tally s gid
            (if lu <= lv then seed_key rg ~la:lu ~le ~lb:lv
             else seed_key rg ~la:lv ~le ~lb:lu)
            0)
        g ())
    db

(* The frequent seeds [select] keeps, in seed order, each with its
   embeddings (database order; both orientations when the end labels
   agree) and support set. Only the kept seeds' embeddings are built, by
   replaying the trace over the edges. *)
let seeds s rg ~min_support ~select db =
  count_seeds s rg db;
  let chosen = ref [] in
  for k = s.slots - 1 downto 0 do
    s.kept.(k) <- -1;
    if s.count.(k) >= min_support && select (seed_of_key rg s.slot_key.(k))
    then chosen := k :: !chosen
  done;
  let chosen = Array.of_list !chosen in
  Array.sort (fun a b -> Int.compare s.slot_key.(a) s.slot_key.(b)) chosen;
  let n = Array.length chosen in
  Array.iteri (fun j k -> s.kept.(k) <- j) chosen;
  let embs = Array.make n [] in
  let sets = Array.init n (fun _ -> Bitset.create (Db.size db)) in
  if n > 0 then begin
    let c = ref 0 in
    Db.iteri
      (fun gid g ->
        Graph.fold_edges
          (fun u v _ () ->
            let j = s.kept.(s.cand_slot.(!c)) in
            incr c;
            if j >= 0 then begin
              Bitset.set sets.(j) gid;
              let lu = Graph.node_label g u and lv = Graph.node_label g v in
              let emb a b = { graph_id = gid; map = [| a; b |] } in
              embs.(j) <-
                (if lu < lv then emb u v :: embs.(j)
                 else if lv < lu then emb v u :: embs.(j)
                 else emb v u :: emb u v :: embs.(j))
            end)
          g ())
      db
  end;
  List.init n (fun j ->
      (seed_of_key rg s.slot_key.(chosen.(j)), List.rev embs.(j), sets.(j)))

let mine_seed_tasks ?max_edges ?select ~min_support db =
  if min_support < 1 then invalid_arg "Gspan.mine: min_support must be >= 1";
  let max_edges = Option.value ~default:max_int max_edges in
  if max_edges < 1 then []
  else
    let rg = ranges_of db in
    let select = Option.value select ~default:(fun _ -> true) in
    List.map
      (fun (((la, le, lb) as seed), embs, set) ->
        let edge =
          {
            Dfs_code.from_i = 0;
            to_i = 1;
            from_label = la;
            edge_label = le;
            to_label = lb;
          }
        in
        ( seed,
          fun report ->
            explore_subtree ~max_edges ~min_support rg db edge embs set report
        ))
      (seeds (Domain.DLS.get scratch_key) rg ~min_support ~select db)

let mine_tasks ?max_edges ~min_support db =
  List.map snd (mine_seed_tasks ?max_edges ~min_support db)

let mine ?max_edges ~min_support db report =
  List.iter (fun task -> task report) (mine_tasks ?max_edges ~min_support db)

let mine_list ?max_edges ~min_support db =
  let acc = ref [] in
  mine ?max_edges ~min_support db (fun p ->
      acc := { p with embeddings = p.embeddings } :: !acc);
  List.rev !acc

let frequent_labels ~min_support db =
  let counts = Hashtbl.create 256 in
  Db.iteri
    (fun _ g ->
      List.iter
        (fun l ->
          Hashtbl.replace counts l
            (1 + Option.value ~default:0 (Hashtbl.find_opt counts l)))
        (Graph.distinct_node_labels g))
    db;
  Hashtbl.fold
    (fun l c acc -> if c >= min_support then l :: acc else acc)
    counts []
  |> List.sort compare
