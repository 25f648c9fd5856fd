(** An HLO-like graph intermediate representation — the target of LazyTensor
    tracing (§3.3) and the input of the domain-specific compiler.

    Nodes are immutable DAG vertices. A compute node carries its typed
    catalog operation (used for CSE, for trace identity and by the checker),
    its output shape and its cost metadata ({!S4o_device.Op_info.t}).
    Parameters are fed at execution time; literals are embedded constants. *)

open S4o_tensor
module Catalog = S4o_ops.Catalog

type node = {
  id : int;
  shape : Shape.t;
  info : S4o_device.Op_info.t;
  inputs : node list;
  role : role;
}

and role =
  | Compute of Catalog.prim
  | Param of int  (** Fed at execution; the int is the parameter position. *)
  | Literal of Dense.t

let counter = ref 0

let next_id () =
  incr counter;
  !counter

let leaf_info name ~bytes_out =
  {
    S4o_device.Op_info.name;
    kind = S4o_device.Op_info.Data_movement;
    flops = 0;
    bytes_in = 0;
    bytes_out;
  }

let param ~index ~shape =
  {
    id = next_id ();
    shape;
    info = leaf_info "parameter" ~bytes_out:0;
    inputs = [];
    role = Param index;
  }

let literal value =
  let shape = Dense.shape value in
  {
    id = next_id ();
    shape;
    info =
      leaf_info "constant"
        ~bytes_out:(S4o_device.Op_info.bytes_of_shape shape);
    inputs = [];
    role = Literal value;
  }

let op (o : Catalog.op) inputs =
  {
    id = next_id ();
    shape = o.out_shape;
    info = o.info;
    inputs;
    role = Compute o.prim;
  }

let name n =
  match n.role with
  | Compute p -> Catalog.name p
  | Param _ -> "parameter"
  | Literal _ -> "constant"

let role_equal a b =
  match (a, b) with
  | Compute p, Compute q -> Catalog.equal p q
  | Param i, Param j -> i = j
  | Literal u, Literal v -> Dense.equal u v
  | (Compute _ | Param _ | Literal _), _ -> false

let role_hash = function
  | Compute p -> Catalog.hash p
  | Param i -> i + 17
  | Literal v -> Dense.hash_contents v

(** {1 Graphs} *)

type graph = { outputs : node list; nodes : node list  (** topological order *) }

(** Topologically sort all nodes reachable from the outputs. *)
let graph_of_outputs outputs =
  let visited = Hashtbl.create 64 in
  let order = ref [] in
  let rec visit n =
    if not (Hashtbl.mem visited n.id) then begin
      Hashtbl.add visited n.id ();
      List.iter visit n.inputs;
      order := n :: !order
    end
  in
  List.iter visit outputs;
  { outputs; nodes = List.rev !order }

let size g = List.length g.nodes

let params g =
  List.filter_map
    (fun n ->
      match n.role with Param i -> Some (i, n) | Compute _ | Literal _ -> None)
    g.nodes
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map snd

(** {1 Identity} *)

module Key = struct
  type t = {
    roles : role array;
    shapes : Shape.t array;
    edges : int array;
        (** For each node in order, its input count and its inputs'
            positions; then the output count and the outputs' positions. *)
    hash : int;
  }

  let of_graph g =
    let nodes = Array.of_list g.nodes in
    let position = Hashtbl.create (2 * Array.length nodes) in
    Array.iteri (fun i (n : node) -> Hashtbl.add position n.id i) nodes;
    let size =
      Array.fold_left
        (fun acc (n : node) -> acc + 1 + List.length n.inputs)
        (1 + List.length g.outputs) nodes
    in
    let edges = Array.make size 0 in
    let next = ref 0 in
    let push v =
      edges.(!next) <- v;
      incr next
    in
    let push_list l =
      push (List.length l);
      List.iter (fun (n : node) -> push (Hashtbl.find position n.id)) l
    in
    Array.iter (fun (n : node) -> push_list n.inputs) nodes;
    push_list g.outputs;
    let roles = Array.map (fun (n : node) -> n.role) nodes in
    let shapes = Array.map (fun (n : node) -> n.shape) nodes in
    let h = ref 0 in
    let mix v = h := (!h * 1000003) lxor v in
    Array.iter (fun r -> mix (role_hash r)) roles;
    Array.iter (fun s -> mix (Shape.hash s)) shapes;
    Array.iter mix edges;
    { roles; shapes; edges; hash = !h }

  let equal a b =
    a.hash = b.hash
    && Array.length a.roles = Array.length b.roles
    && Array.length a.edges = Array.length b.edges
    && Array.for_all2 Int.equal a.edges b.edges
    && Array.for_all2 Shape.equal a.shapes b.shapes
    && Array.for_all2 role_equal a.roles b.roles

  let hash k = k.hash
end

let fingerprint g = Key.hash (Key.of_graph g)
let equal a b = Key.equal (Key.of_graph a) (Key.of_graph b)

(** {1 Rendering (Figure 4)} *)

let pp_node ppf n =
  let ins = String.concat ", " (List.map (fun i -> Format.sprintf "%%%d" i.id) n.inputs) in
  let attrs =
    match n.role with
    | Compute p when Catalog.attrs p <> "" ->
        Format.sprintf " {%s}" (Catalog.attrs p)
    | Param i -> Format.sprintf " {%d}" i
    | Compute _ | Literal _ -> ""
  in
  Format.fprintf ppf "%%%d = %s%s(%s) : %s" n.id (name n) attrs ins
    (Shape.to_string n.shape)

let pp_graph ppf g =
  Format.fprintf ppf "HLO graph (%d nodes):@." (size g);
  List.iter (fun n -> Format.fprintf ppf "  %a@." pp_node n) g.nodes;
  Format.fprintf ppf "  outputs: %s"
    (String.concat ", " (List.map (fun o -> Format.sprintf "%%%d" o.id) g.outputs))

let to_string g = Format.asprintf "%a" pp_graph g

(** GraphViz rendering of the trace DAG, as in Figure 4. *)
let to_dot ?name:(graph_name = "trace") g =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Format.sprintf "digraph %s {\n  rankdir=TB;\n" graph_name);
  List.iter
    (fun n ->
      let color =
        match n.role with
        | Param _ -> "lightblue"
        | Literal _ -> "lightgray"
        | Compute _ -> (
            match n.info.S4o_device.Op_info.kind with
            | S4o_device.Op_info.Contraction -> "lightsalmon"
            | _ -> "white")
      in
      Buffer.add_string buf
        (Format.sprintf
           "  n%d [label=\"%s\\n%s\", style=filled, fillcolor=%s];\n" n.id
           (name n)
           (Shape.to_string n.shape)
           color);
      List.iter
        (fun i -> Buffer.add_string buf (Format.sprintf "  n%d -> n%d;\n" i.id n.id))
        n.inputs)
    g.nodes;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
