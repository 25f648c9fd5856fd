type tag_stats = {
  tag : string;
  live_bytes : int;
  peak_bytes : int;
  allocs : int;
  frees : int;
}

(* Mutable per-tag accumulator behind the immutable snapshot above. *)
type tag_cell = {
  mutable t_live : int;
  mutable t_peak : int;
  mutable t_allocs : int;
  mutable t_frees : int;
}

type t = {
  mutex : Mutex.t;
  owner : int Atomic.t;  (* id of the domain holding [mutex], or -1 *)
  mutable enabled : bool;
  mutable gen : int;
  mutable live : int;
  mutable peak : int;
  mutable allocs : int;
  mutable frees : int;
  mutable views : int;
  mutable tag : string;  (* current dynamic attribution tag *)
  by_tag : (string, tag_cell) Hashtbl.t;
}

let default_tag = "tensor"

let create ?(enabled = true) () =
  {
    mutex = Mutex.create ();
    owner = Atomic.make (-1);
    enabled;
    gen = 0;
    live = 0;
    peak = 0;
    allocs = 0;
    frees = 0;
    views = 0;
    tag = default_tag;
    by_tag = Hashtbl.create 8;
  }

(* Off by default: tracking must be opted into (s4o_cli profile, tests),
   so the un-profiled allocation path pays only the [enabled] branch. *)
let global = create ~enabled:false ()

let enabled t = t.enabled
let set_enabled t on = t.enabled <- on
let generation t = t.gen
let current_tag t = t.tag

(* A GC finaliser credits its buffer's free ([free_gen]) at whatever
   allocation or poll point the GC runs it, which can be inside another
   [locked] section on the same domain. That nested call must not wait for
   the lock its own domain holds (OCaml's mutex raises [Sys_error] there).
   Each counter update is one read-modify-write with no poll point inside
   it, so the nested update cannot be lost. *)
let locked t f =
  let self = (Domain.self () :> int) in
  if Atomic.get t.owner = self then f ()
  else begin
    Mutex.lock t.mutex;
    Atomic.set t.owner self;
    Fun.protect
      ~finally:(fun () ->
        Atomic.set t.owner (-1);
        Mutex.unlock t.mutex)
      f
  end

let cell t tag =
  match Hashtbl.find_opt t.by_tag tag with
  | Some c -> c
  | None ->
      let c = { t_live = 0; t_peak = 0; t_allocs = 0; t_frees = 0 } in
      Hashtbl.add t.by_tag tag c;
      c

let alloc t ?tag bytes =
  if t.enabled then
    locked t (fun () ->
        let tag = match tag with Some s -> s | None -> t.tag in
        t.live <- t.live + bytes;
        if t.live > t.peak then t.peak <- t.live;
        t.allocs <- t.allocs + 1;
        let c = cell t tag in
        c.t_live <- c.t_live + bytes;
        if c.t_live > c.t_peak then c.t_peak <- c.t_live;
        c.t_allocs <- c.t_allocs + 1)

let free t ?tag bytes =
  if t.enabled then
    locked t (fun () ->
        let tag = match tag with Some s -> s | None -> t.tag in
        t.live <- t.live - bytes;
        t.frees <- t.frees + 1;
        let c = cell t tag in
        c.t_live <- c.t_live - bytes;
        c.t_frees <- c.t_frees + 1)

let free_gen t ~gen ?tag bytes = if gen = t.gen then free t ?tag bytes

let note_view t =
  if t.enabled then locked t (fun () -> t.views <- t.views + 1)

(* The tag is dynamic state of the allocating (main) domain; finaliser
   frees never read it (they capture their tag explicitly), so a plain
   mutable field with save/restore is enough. *)
let with_tag t tag f =
  if not t.enabled then f ()
  else begin
    let saved = t.tag in
    t.tag <- tag;
    Fun.protect ~finally:(fun () -> t.tag <- saved) f
  end

let live_bytes t = t.live
let peak_bytes t = t.peak
let alloc_count t = t.allocs
let free_count t = t.frees
let view_count t = t.views

let tags t =
  locked t (fun () ->
      Hashtbl.fold
        (fun tag c acc ->
          {
            tag;
            live_bytes = c.t_live;
            peak_bytes = c.t_peak;
            allocs = c.t_allocs;
            frees = c.t_frees;
          }
          :: acc)
        t.by_tag [])
  |> List.sort (fun a b -> compare b.peak_bytes a.peak_bytes)

let reset t =
  locked t (fun () ->
      t.gen <- t.gen + 1;
      t.live <- 0;
      t.peak <- 0;
      t.allocs <- 0;
      t.frees <- 0;
      t.views <- 0;
      t.tag <- default_tag;
      Hashtbl.reset t.by_tag)

let human_bytes b =
  let fb = float_of_int b in
  if abs b >= 1 lsl 30 then Printf.sprintf "%.2f GiB" (fb /. 1073741824.0)
  else if abs b >= 1 lsl 20 then Printf.sprintf "%.2f MiB" (fb /. 1048576.0)
  else if abs b >= 1 lsl 10 then Printf.sprintf "%.1f KiB" (fb /. 1024.0)
  else Printf.sprintf "%d B" b

let rows t =
  [
    ("tracking", if t.enabled then "enabled" else "disabled");
    ("live tensor bytes", Printf.sprintf "%d (%s)" t.live (human_bytes t.live));
    ("peak tensor bytes", Printf.sprintf "%d (%s)" t.peak (human_bytes t.peak));
    ("allocations", string_of_int t.allocs);
    ("frees", string_of_int t.frees);
    ("zero-copy views", string_of_int t.views);
  ]

let pp ppf t =
  List.iter (fun (k, v) -> Format.fprintf ppf "  %-22s %s@." k v) (rows t);
  match tags t with
  | [] -> ()
  | by_tag ->
      Format.fprintf ppf "  by tag:@.";
      List.iter
        (fun (s : tag_stats) ->
          Format.fprintf ppf "    %-14s live %-12s peak %-12s allocs %d frees %d@."
            s.tag (human_bytes s.live_bytes) (human_bytes s.peak_bytes)
            s.allocs s.frees)
        by_tag

let to_json t =
  let open Json in
  Obj
    [
      ("live_bytes", Num (float_of_int t.live));
      ("peak_bytes", Num (float_of_int t.peak));
      ("alloc_count", Num (float_of_int t.allocs));
      ("free_count", Num (float_of_int t.frees));
      ("view_count", Num (float_of_int t.views));
      ( "tags",
        Arr
          (List.map
             (fun (s : tag_stats) ->
               Obj
                 [
                   ("tag", Str s.tag);
                   ("live_bytes", Num (float_of_int s.live_bytes));
                   ("peak_bytes", Num (float_of_int s.peak_bytes));
                   ("allocs", Num (float_of_int s.allocs));
                   ("frees", Num (float_of_int s.frees));
                 ])
             (tags t)) );
    ]
