(** An HLO-like graph intermediate representation — the target of LazyTensor
    tracing (§3.3) and the input of the domain-specific compiler.

    Nodes are immutable DAG vertices. A compute node carries its typed
    catalog operation ({!S4o_ops.Catalog.prim}, used for CSE, trace identity
    and the checker), its output shape and its cost metadata. Parameters are
    fed at execution time; literals are embedded constants. The record is
    exposed because the optimizer, fuser, and executor pattern-match on it
    throughout. *)

open S4o_tensor

type node = {
  id : int;  (** Globally unique; not part of the graph's identity. *)
  shape : Shape.t;
  info : S4o_device.Op_info.t;
  inputs : node list;
  role : role;
}

and role =
  | Compute of S4o_ops.Catalog.prim
  | Param of int  (** Fed at execution; the int is the parameter position. *)
  | Literal of Dense.t

val param : index:int -> shape:Shape.t -> node
val literal : Dense.t -> node

(** [op o inputs] is a compute node applying catalog op [o] to [inputs],
    declaring [o]'s output shape and cost. *)
val op : S4o_ops.Catalog.op -> node list -> node

(** ["parameter"], ["constant"], or the catalog name of the op. *)
val name : node -> string

(** Roles are equal when their ops are {!S4o_ops.Catalog.equal}, their
    parameter positions match, or their literals are {!Dense.equal}. *)
val role_equal : role -> role -> bool

val role_hash : role -> int

(** {1 Graphs} *)

type graph = { outputs : node list; nodes : node list  (** topological order *) }

(** Topologically sort all nodes reachable from the outputs (this is also the
    dead-code elimination primitive). *)
val graph_of_outputs : node list -> graph

val size : graph -> int

(** Parameter nodes, sorted by parameter position. *)
val params : graph -> node list

(** {1 Identity}

    Two graphs are the same program when, node by node in topological
    order, their roles are {!role_equal} and their shapes and input
    positions match, and their outputs sit at the same positions. Node ids
    and parameter {e values} do not take part, so a program re-traced at
    the next training step is the same program — the key of the
    XLA-program cache (§3.4). *)

(** A graph in the form its identity is decided on: nodes renumbered by
    topological position. Building it walks the graph once; comparing two
    keys then needs no table. *)
module Key : sig
  type t

  val of_graph : graph -> t
  val equal : t -> t -> bool
  val hash : t -> int
end

(** [Key.hash (Key.of_graph g)]. *)
val fingerprint : graph -> int

(** [Key.equal] of both graphs' keys. *)
val equal : graph -> graph -> bool

(** {1 Rendering (Figure 4)} *)

val pp_node : Format.formatter -> node -> unit
val pp_graph : Format.formatter -> graph -> unit
val to_string : graph -> string

(** GraphViz rendering of the trace DAG, as in Figure 4. *)
val to_dot : ?name:string -> graph -> string
