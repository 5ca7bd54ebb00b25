module Label = Tsg_graph.Label
module Bitset = Tsg_util.Bitset

type id = Label.id

type flat = {
  anc_first : int array;
  anc : id array;
  child_first : int array;
  child : id array;
}

type t = {
  labels : Label.t;
  parents : id list array;
  children : id list array;
  anc : Bitset.t array; (* reflexive ancestor closure *)
  desc : Bitset.t array; (* reflexive descendant closure *)
  depth : int array;
  topo : id array; (* ancestors before descendants *)
  roots : id list;
  artificial_from : int; (* ids >= this were synthesized *)
  flat : flat option Atomic.t; (* [None] until the first [flat] call *)
}

let label_count t = Array.length t.parents

let relationship_count t =
  Array.fold_left (fun acc ps -> acc + List.length ps) 0 t.parents

let labels t = t.labels

let name t l = Label.name t.labels l

let id_of_name t n = Label.find_exn t.labels n

let is_artificial t l = l >= t.artificial_from

let parents t l = t.parents.(l)

let declared t =
  let originals = List.init t.artificial_from Fun.id in
  let is_a l =
    List.filter_map
      (fun p -> if is_artificial t p then None else Some (name t l, name t p))
      (parents t l)
  in
  (List.map (name t) originals, List.concat_map is_a originals)

let children t l = t.children.(l)

let roots t = t.roots

let is_root t l = t.parents.(l) = []

let is_leaf t l = t.children.(l) = []

let leaves t =
  let acc = ref [] in
  for l = label_count t - 1 downto 0 do
    if is_leaf t l then acc := l :: !acc
  done;
  !acc

let topological_order t = Array.copy t.topo

let is_ancestor t ~anc l = Bitset.mem t.anc.(l) anc

let ancestors t l = Bitset.to_list t.anc.(l)

let strict_ancestors t l = List.filter (fun a -> a <> l) (ancestors t l)

let ancestor_set t l = t.anc.(l)

let descendants t l = Bitset.to_list t.desc.(l)

let strict_descendants t l = List.filter (fun d -> d <> l) (descendants t l)

let descendant_set t l = t.desc.(l)

let build_flat t =
  let n = label_count t in
  let offsets count =
    let first = Array.make (n + 1) 0 in
    for l = 0 to n - 1 do
      first.(l + 1) <- first.(l) + count l
    done;
    first
  in
  let anc_first = offsets (fun l -> Bitset.cardinal t.anc.(l)) in
  let anc = Array.make anc_first.(n) 0 in
  for l = 0 to n - 1 do
    ignore
      (Bitset.fold (fun a j -> anc.(j) <- a; j + 1) t.anc.(l) anc_first.(l))
  done;
  let child_first = offsets (fun l -> List.length t.children.(l)) in
  let child = Array.make child_first.(n) 0 in
  for l = 0 to n - 1 do
    List.iteri (fun i c -> child.(child_first.(l) + i) <- c) t.children.(l)
  done;
  { anc_first; anc; child_first; child }

(* Domains racing on the first call may each build the arrays; the first
   to publish wins and every caller returns its copy. *)
let flat t =
  match Atomic.get t.flat with
  | Some f -> f
  | None ->
    let f = build_flat t in
    if Atomic.compare_and_set t.flat None (Some f) then f
    else Option.get (Atomic.get t.flat)

let depth t l = t.depth.(l)

let max_depth t = Array.fold_left max 0 t.depth

let level_count t = if label_count t = 0 then 0 else max_depth t + 1

let most_general t l =
  match List.filter (fun r -> Bitset.mem t.anc.(l) r) t.roots with
  | [ r ] -> r
  | [] -> l (* only possible when l is itself an isolated root *)
  | _ -> assert false (* build guarantees a unique root per label *)

let avg_strict_ancestors t =
  let n = label_count t in
  if n = 0 then 0.0
  else
    let total =
      Array.fold_left (fun acc s -> acc + Bitset.cardinal s - 1) 0 t.anc
    in
    float_of_int total /. float_of_int n

let restrict t ~keep l =
  let seen = Hashtbl.create 16 in
  let out = ref [] in
  let rec visit c =
    if not (Hashtbl.mem seen c) then begin
      Hashtbl.add seen c ();
      if keep c then out := c :: !out
      else List.iter visit t.children.(c)
    end
  in
  List.iter visit t.children.(l);
  List.rev !out

let pp ppf t =
  Format.fprintf ppf "@[<v>taxonomy: %d labels, %d is-a edges, depth %d@,"
    (label_count t) (relationship_count t) (max_depth t);
  Array.iteri
    (fun l ps ->
      if ps <> [] then
        Format.fprintf ppf "  %s -> %s@," (name t l)
          (String.concat ", " (List.map (name t) ps)))
    t.parents;
  Format.fprintf ppf "@]"

(* --- construction ------------------------------------------------------- *)

(* Kahn's algorithm; raises on cycles. Orders ancestors before descendants,
   so we walk edges parent->child. *)
let topo_sort n children_of =
  let indeg = Array.make n 0 in
  for v = 0 to n - 1 do
    List.iter (fun c -> indeg.(c) <- indeg.(c) + 1) (children_of v)
  done;
  let queue = Queue.create () in
  for v = 0 to n - 1 do
    if indeg.(v) = 0 then Queue.add v queue
  done;
  let order = Array.make n (-1) in
  let filled = ref 0 in
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    order.(!filled) <- v;
    incr filled;
    List.iter
      (fun c ->
        indeg.(c) <- indeg.(c) - 1;
        if indeg.(c) = 0 then Queue.add c queue)
      (children_of v)
  done;
  if !filled <> n then invalid_arg "Taxonomy.build: is-a graph has a cycle";
  order

module Union_find = struct
  let create n = Array.init n (fun i -> i)

  let rec find uf i = if uf.(i) = i then i else find uf uf.(i)

  let union uf i j =
    let ri = find uf i and rj = find uf j in
    if ri <> rj then uf.(ri) <- rj
end

let build_ids ~labels ~is_a =
  let n0 = Label.size labels in
  let parents0 = Array.make n0 [] in
  let children0 = Array.make n0 [] in
  List.iter
    (fun (child, parent) ->
      if child < 0 || child >= n0 || parent < 0 || parent >= n0 then
        invalid_arg "Taxonomy.build_ids: label id out of range";
      if child = parent then
        invalid_arg "Taxonomy.build_ids: self is-a edge";
      if List.mem parent parents0.(child) then
        invalid_arg "Taxonomy.build_ids: duplicate is-a edge";
      parents0.(child) <- parent :: parents0.(child);
      children0.(parent) <- child :: children0.(parent))
    is_a;
  (* Wherever a label can reach several roots, merge those roots under one
     artificial ancestor so most-general ancestors are unique (paper §3
     step 1). Roots reachable from a common label are unioned. *)
  let topo0 = topo_sort n0 (fun v -> children0.(v)) in
  let root_ids0 =
    List.filter (fun v -> parents0.(v) = [])
      (List.init n0 (fun i -> i))
  in
  let root_index = Hashtbl.create 8 in
  List.iteri (fun i r -> Hashtbl.add root_index r i) root_ids0;
  let nroots = List.length root_ids0 in
  let root_sets = Array.init n0 (fun _ -> Bitset.create nroots) in
  Array.iter
    (fun v ->
      (match Hashtbl.find_opt root_index v with
      | Some i -> Bitset.set root_sets.(v) i
      | None -> ());
      List.iter
        (fun p -> Bitset.union_into ~dst:root_sets.(v) root_sets.(v) root_sets.(p))
        parents0.(v))
    topo0;
  let uf = Union_find.create nroots in
  Array.iter
    (fun s ->
      match Bitset.to_list s with
      | [] | [ _ ] -> ()
      | first :: rest -> List.iter (Union_find.union uf first) rest)
    root_sets;
  let groups = Hashtbl.create 8 in
  List.iteri
    (fun i r ->
      let rep = Union_find.find uf i in
      let existing = Option.value ~default:[] (Hashtbl.find_opt groups rep) in
      Hashtbl.replace groups rep (r :: existing))
    root_ids0;
  let multi_groups =
    (* sort: the synthetic <root:k> names must not depend on the hash
       order the union-find representatives happen to land in *)
    Hashtbl.fold
      (fun _ members acc ->
        match members with [] | [ _ ] -> acc | ms -> List.rev ms :: acc)
      groups []
    |> List.sort compare
  in
  let extra_edges = ref [] in
  List.iteri
    (fun k members ->
      let root_name = Printf.sprintf "<root:%d>" k in
      let root_id = Label.intern labels root_name in
      List.iter (fun m -> extra_edges := (m, root_id) :: !extra_edges) members)
    multi_groups;
  let n = Label.size labels in
  let parents = Array.make n [] in
  let children = Array.make n [] in
  let add (child, parent) =
    parents.(child) <- parent :: parents.(child);
    children.(parent) <- child :: children.(parent)
  in
  List.iter add is_a;
  List.iter add !extra_edges;
  for v = 0 to n - 1 do
    parents.(v) <- List.sort compare parents.(v);
    children.(v) <- List.sort compare children.(v)
  done;
  let topo = topo_sort n (fun v -> children.(v)) in
  let anc = Array.init n (fun _ -> Bitset.create n) in
  let depth = Array.make n 0 in
  Array.iter
    (fun v ->
      Bitset.set anc.(v) v;
      List.iter
        (fun p ->
          Bitset.union_into ~dst:anc.(v) anc.(v) anc.(p);
          depth.(v) <- max depth.(v) (depth.(p) + 1))
        parents.(v))
    topo;
  let desc = Array.init n (fun _ -> Bitset.create n) in
  for i = n - 1 downto 0 do
    let v = topo.(i) in
    Bitset.set desc.(v) v;
    List.iter
      (fun c -> Bitset.union_into ~dst:desc.(v) desc.(v) desc.(c))
      children.(v)
  done;
  let roots =
    List.filter (fun v -> parents.(v) = []) (List.init n (fun i -> i))
  in
  { labels; parents; children; anc; desc; depth; topo; roots;
    artificial_from = n0; flat = Atomic.make None }

let build ~names ~is_a =
  let labels = Label.of_names names in
  let resolve n =
    match Label.find labels n with
    | Some id -> id
    | None -> invalid_arg ("Taxonomy.build: unknown label " ^ n)
  in
  let is_a = List.map (fun (c, p) -> (resolve c, resolve p)) is_a in
  build_ids ~labels ~is_a
