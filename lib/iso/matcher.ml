module Graph = Tsg_graph.Graph

type spec = {
  node_ok : Tsg_graph.Label.id -> Tsg_graph.Label.id -> bool;
  edge_ok : Tsg_graph.Label.id -> Tsg_graph.Label.id -> bool;
}

let equal_labels = { node_ok = ( = ); edge_ok = ( = ) }

(* Static matching order: start from a max-degree node, then repeatedly pick
   an unplaced node adjacent to a placed one (highest degree first), falling
   back to any unplaced node for disconnected patterns. For each position we
   record the constraints against earlier positions. *)
type plan_step = {
  pnode : int;
  plabel : Tsg_graph.Label.id;
  anchor : int option; (* earlier position whose image we expand from *)
  checks : (int * Tsg_graph.Label.id) list;
      (* (earlier position, required edge label) — includes the anchor *)
}

(* immutable once built: a search allocates its own scratch, so one
   compiled pattern can serve concurrent searches *)
type compiled = { nodes : int; steps : plan_step array }

let compile pattern =
  let n = Graph.node_count pattern in
  let placed_pos = Array.make n (-1) in
  let reached = Array.make n false in (* adjacent to a placed node *)
  (* the highest-degree unplaced node (the highest id among ties), among
     those adjacent to a placed one when [adjacent] *)
  let pick ~adjacent =
    let best = ref (-1) in
    for v = n - 1 downto 0 do
      if
        placed_pos.(v) < 0
        && ((not adjacent) || reached.(v))
        && (!best < 0 || Graph.degree pattern v > Graph.degree pattern !best)
      then best := v
    done;
    !best
  in
  let steps =
    Array.init n (fun pos ->
        let v = match pick ~adjacent:true with -1 -> pick ~adjacent:false | v -> v in
        placed_pos.(v) <- pos;
        let neighbors = Graph.neighbors pattern v in
        Array.iter (fun (w, _) -> reached.(w) <- true) neighbors;
        let checks =
          Array.fold_left
            (fun acc (w, lbl) ->
              let p = placed_pos.(w) in
              if p >= 0 && p < pos then (p, lbl) :: acc else acc)
            [] neighbors
        in
        let anchor = match checks with [] -> None | (p, _) :: _ -> Some p in
        { pnode = v; plabel = Graph.node_label pattern v; anchor; checks })
  in
  { nodes = n; steps }

exception Stop

let fits ~bijective np nt = if bijective then np = nt else np <= nt

let search ?limit spec { nodes = np; steps } ~target ~bijective emit =
  let nt = Graph.node_count target in
  if not (fits ~bijective np nt) then ()
  else if np = 0 then emit [||]
  else begin
    let image = Array.make np (-1) in (* position -> target node *)
    let used = Array.make nt false in
    let emitted = ref 0 in
    let assignment () =
      let a = Array.make np (-1) in
      Array.iteri (fun pos step -> a.(step.pnode) <- image.(pos)) steps;
      a
    in
    let feasible step tnode =
      (not used.(tnode))
      && spec.node_ok step.plabel (Graph.node_label target tnode)
      && List.for_all
           (fun (pos, plbl) ->
             match Graph.edge_label target tnode image.(pos) with
             | Some tlbl -> spec.edge_ok plbl tlbl
             | None -> false)
           step.checks
    in
    let rec extend pos =
      if pos = np then begin
        emit (assignment ());
        incr emitted;
        match limit with
        | Some l when !emitted >= l -> raise Stop
        | _ -> ()
      end
      else begin
        let step = steps.(pos) in
        let try_node tnode =
          if feasible step tnode then begin
            image.(pos) <- tnode;
            used.(tnode) <- true;
            extend (pos + 1);
            used.(tnode) <- false;
            image.(pos) <- -1
          end
        in
        match step.anchor with
        | Some apos ->
          Array.iter
            (fun (tnode, _) -> try_node tnode)
            (Graph.neighbors target image.(apos))
        | None ->
          for tnode = 0 to nt - 1 do
            try_node tnode
          done
      end
    in
    (try extend 0 with Stop -> ())
  end

(* one-shot callers plan only a pattern whose size fits the target *)
let search_once ?limit spec ~pattern ~target ~bijective emit =
  if fits ~bijective (Graph.node_count pattern) (Graph.node_count target) then
    search ?limit spec (compile pattern) ~target ~bijective emit

let first_found search =
  let found = ref false in
  search (fun _ -> found := true);
  !found

let exists_compiled spec compiled ~target =
  first_found (search ~limit:1 spec compiled ~target ~bijective:false)

let exists spec ~pattern ~target =
  first_found (search_once ~limit:1 spec ~pattern ~target ~bijective:false)

let exists_bijective spec ~pattern ~target =
  first_found (search_once ~limit:1 spec ~pattern ~target ~bijective:true)

let iter_embeddings ?limit spec ~pattern ~target f =
  search_once ?limit spec ~pattern ~target ~bijective:false f

let count_embeddings ?limit spec ~pattern ~target =
  let count = ref 0 in
  search_once ?limit spec ~pattern ~target ~bijective:false (fun _ ->
      incr count);
  !count
