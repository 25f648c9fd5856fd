module A = Bigarray.Array1

type padding = Same | Valid

let fail fmt = Format.kasprintf (fun s -> raise (Shape.Shape_error s)) fmt

let out_dim padding ~size ~kernel ~stride =
  match padding with
  | Same -> ((size - 1) / stride) + 1
  | Valid -> if size < kernel then 0 else ((size - kernel) / stride) + 1

let pad_amounts padding ~size ~kernel ~stride =
  match padding with
  | Valid -> (0, 0)
  | Same ->
      let out = out_dim Same ~size ~kernel ~stride in
      let total = max 0 (((out - 1) * stride) + kernel - size) in
      let before = total / 2 in
      (before, total - before)

let check_rank4 ctx t =
  if Dense.rank t <> 4 then
    fail "%s: expected rank-4 NHWC tensor, got %s" ctx
      (Shape.to_string (Dense.shape t))

(* Same threshold as the matmul kernel: below this many touched elements a
   stage runs in the calling domain. *)
let serial_cutoff = 1 lsl 16

let maybe_parallel ?domains ~work ~n f =
  if work <= serial_cutoff then f 0 n else Pool.run ?domains ~n f

(* The geometry every conv kernel shares. Patch rows are indexed
   [r = (b*oh + oy)*ow + ox]; patch columns [(ky*kw + kx)*cin + c]. In NHWC
   the [cin] innermost span of both the input and the patch row is
   contiguous, so im2col and col2im move whole spans. *)
type geom = {
  n : int;
  h : int;
  w : int;
  cin : int;
  kh : int;
  kw : int;
  oh : int;
  ow : int;
  sh : int;
  sw : int;
  ph : int;
  pw : int;
}

let geom ~stride ~padding ~ishape ~kh ~kw =
  let sh, sw = stride in
  let n = ishape.(0) and h = ishape.(1) and w = ishape.(2) and cin = ishape.(3) in
  let oh = out_dim padding ~size:h ~kernel:kh ~stride:sh in
  let ow = out_dim padding ~size:w ~kernel:kw ~stride:sw in
  let ph, _ = pad_amounts padding ~size:h ~kernel:kh ~stride:sh in
  let pw, _ = pad_amounts padding ~size:w ~kernel:kw ~stride:sw in
  { n; h; w; cin; kh; kw; oh; ow; sh; sw; ph; pw }

(* A 1x1 stride-1 unpadded convolution is exactly a matmul of the flattened
   input: the patch matrix would be a copy of it. *)
let is_pointwise g =
  g.kh = 1 && g.kw = 1 && g.sh = 1 && g.sw = 1 && g.ph = 0 && g.pw = 0

let imin (a : int) b = if a < b then a else b
let imax (a : int) b = if a > b then a else b

(* Materialize the [n*oh*ow; kh*kw*cin] patch matrix. Rows are disjoint, so
   the fill parallelizes over rows. The patch tensor starts uninitialized:
   every element is written exactly once — image data as contiguous span
   copies, out-of-image (padding) columns as explicit zero spans — which
   saves a full pre-zeroing pass over the (large) patch matrix. Consecutive
   kx read consecutive input columns at any stride, so each in-image ky
   row is one span copy of up to kw*cin elements between two zero fringes;
   spans are short (5 elements for LeNet's first layer), so they are plain
   indexed loops rather than Bigarray slices. *)
let im2col ?domains g input =
  let { n; h; w; cin; kh; kw; oh; ow; sh; sw; ph; pw } = g in
  let rows = n * oh * ow in
  let cols = kh * kw * cin in
  let patches =
    S4o_obs.Memory.with_tag S4o_obs.Memory.global "im2col" (fun () ->
        Dense.uninit [| rows; cols |])
  in
  let id = Dense.unsafe_data input and pd = Dense.unsafe_data patches in
  let fill lo hi =
    Sanitizer.note_write pd ~lo:(lo * cols) ~len:((hi - lo) * cols)
      ~who:"im2col patch rows";
    Sanitizer.note_read id ~lo:0 ~len:(A.dim id) ~who:"im2col input";
    for r = lo to hi - 1 do
      let ox = r mod ow in
      let rest = r / ow in
      let oy = rest mod oh in
      let b = rest / oh in
      let rbase = r * cols in
      (* in-image kernel columns: 0 <= ox*sw + kx - pw < w *)
      let x0 = (ox * sw) - pw in
      let kx0 = imin kw (imax 0 (-x0)) in
      let kx1 = imax kx0 (imin kw (w - x0)) in
      for ky = 0 to kh - 1 do
        let iy = (oy * sh) + ky - ph in
        let kbase = rbase + (ky * kw * cin) in
        if iy < 0 || iy >= h then
          for j = kbase to kbase + (kw * cin) - 1 do
            A.unsafe_set pd j 0.0
          done
        else begin
          let lo = kbase + (kx0 * cin) and hi = kbase + (kx1 * cin) in
          for j = kbase to lo - 1 do
            A.unsafe_set pd j 0.0
          done;
          let shift = ((((b * h) + iy) * w) + x0) * cin - kbase in
          for j = lo to hi - 1 do
            A.unsafe_set pd j (A.unsafe_get id (j + shift))
          done;
          for j = hi to kbase + (kw * cin) - 1 do
            A.unsafe_set pd j 0.0
          done
        end
      done
    done
  in
  maybe_parallel ?domains ~work:(rows * cols) ~n:rows fill;
  patches

let conv2d ?domains ?(stride = (1, 1)) ~padding input filter =
  check_rank4 "conv2d input" input;
  check_rank4 "conv2d filter" filter;
  let ishape = Dense.shape input and fshape = Dense.shape filter in
  let kh = fshape.(0) and kw = fshape.(1) and fcin = fshape.(2) and cout = fshape.(3) in
  if ishape.(3) <> fcin then
    fail "conv2d: input channels %d vs filter channels %d" ishape.(3) fcin;
  let g = geom ~stride ~padding ~ishape ~kh ~kw in
  let rows = g.n * g.oh * g.ow in
  let cols = kh * kw * g.cin in
  let patches =
    if is_pointwise g then Dense.with_shape input [| rows; cols |]
    else im2col ?domains g input
  in
  let filter_mat = Dense.with_shape filter [| cols; cout |] in
  let out = Dense.matmul ?domains patches filter_mat in
  Dense.with_shape out [| g.n; g.oh; g.ow; cout |]

(* dL/dfilter = patches^T x grad: [cols; rows] x [rows; cout]. The blocked
   kernel reads patches^T through a column stride, so no transpose is
   built. *)
let conv2d_backward_filter ?domains ?(stride = (1, 1)) ~padding ~filter_shape
    input grad =
  check_rank4 "conv2d_backward_filter input" input;
  check_rank4 "conv2d_backward_filter grad" grad;
  let ishape = Dense.shape input in
  let kh = filter_shape.(0) and kw = filter_shape.(1) and cout = filter_shape.(3) in
  let g = geom ~stride ~padding ~ishape ~kh ~kw in
  let rows = g.n * g.oh * g.ow in
  let cols = kh * kw * g.cin in
  let patches =
    if is_pointwise g then Dense.with_shape input [| rows; cols |]
    else im2col ?domains g input
  in
  let grad_mat = Dense.with_shape grad [| rows; cout |] in
  let dfilter = Dense.matmul_tn ?domains patches grad_mat in
  Dense.with_shape dfilter filter_shape

(* dL/dinput: dpatches = grad x filter^T, then col2im scatter-adds each
   patch row back into the input image. Patch rows of one batch image
   overlap in the input, so the scatter parallelizes over batches only. *)
let conv2d_backward_input ?domains ?(stride = (1, 1)) ~padding ~input_shape
    filter grad =
  check_rank4 "conv2d_backward_input grad" grad;
  let fshape = Dense.shape filter in
  let kh = fshape.(0) and kw = fshape.(1) and cout = fshape.(3) in
  let g = geom ~stride ~padding ~ishape:input_shape ~kh ~kw in
  let { n; h; w; cin; oh; ow; sh; sw; ph; pw; _ } = g in
  let rows = n * oh * ow in
  let cols = kh * kw * cin in
  let grad_mat = Dense.with_shape grad [| rows; cout |] in
  let filter_t = Dense.transpose (Dense.with_shape filter [| cols; cout |]) in
  let dpatches = Dense.matmul ?domains grad_mat filter_t in
  let dinput = Dense.zeros input_shape in
  let dd = Dense.unsafe_data dinput and pd = Dense.unsafe_data dpatches in
  let scatter blo bhi =
    Sanitizer.note_write dd ~lo:(blo * h * w * cin)
      ~len:((bhi - blo) * h * w * cin) ~who:"col2im input batches";
    Sanitizer.note_read pd ~lo:(blo * oh * ow * cols)
      ~len:((bhi - blo) * oh * ow * cols) ~who:"col2im dpatches";
    for b = blo to bhi - 1 do
      for oy = 0 to oh - 1 do
        for ox = 0 to ow - 1 do
          let rbase = (((b * oh) + oy) * ow + ox) * cols in
          for ky = 0 to kh - 1 do
            let iy = (oy * sh) + ky - ph in
            if iy >= 0 && iy < h then
              for kx = 0 to kw - 1 do
                let ix = (ox * sw) + kx - pw in
                if ix >= 0 && ix < w then begin
                  let dst = ((((b * h) + iy) * w) + ix) * cin in
                  let src = rbase + (((ky * kw) + kx) * cin) in
                  for c = 0 to cin - 1 do
                    A.unsafe_set dd (dst + c)
                      (A.unsafe_get dd (dst + c) +. A.unsafe_get pd (src + c))
                  done
                end
              done
          done
        done
      done
    done
  in
  maybe_parallel ?domains ~work:(rows * cols) ~n:n scatter;
  dinput

let pool_out_shape ishape (kh, kw) (sh, sw) =
  let n = ishape.(0) and h = ishape.(1) and w = ishape.(2) and c = ishape.(3) in
  let oh = out_dim Valid ~size:h ~kernel:kh ~stride:sh in
  let ow = out_dim Valid ~size:w ~kernel:kw ~stride:sw in
  [| n; oh; ow; c |]

let avg_pool2d ~size ~stride input =
  check_rank4 "avg_pool2d" input;
  let kh, kw = size and sh, sw = stride in
  let ishape = Dense.shape input in
  let h = ishape.(1) and w = ishape.(2) and c = ishape.(3) in
  let oshape = pool_out_shape ishape size stride in
  let n = oshape.(0) and oh = oshape.(1) and ow = oshape.(2) in
  let out = Dense.zeros oshape in
  let id = Dense.unsafe_data input and od = Dense.unsafe_data out in
  let inv = 1.0 /. float_of_int (kh * kw) in
  let body blo bhi =
    Sanitizer.note_write od ~lo:(blo * oh * ow * c)
      ~len:((bhi - blo) * oh * ow * c) ~who:"avg_pool2d out batches";
    Sanitizer.note_read id ~lo:(blo * h * w * c) ~len:((bhi - blo) * h * w * c)
      ~who:"avg_pool2d input";
    for b = blo to bhi - 1 do
      for oy = 0 to oh - 1 do
        for ox = 0 to ow - 1 do
          for ch = 0 to c - 1 do
            let acc = ref 0.0 in
            for ky = 0 to kh - 1 do
              for kx = 0 to kw - 1 do
                let iy = (oy * sh) + ky and ix = (ox * sw) + kx in
                acc :=
                  !acc +. A.unsafe_get id ((((((b * h) + iy) * w) + ix) * c) + ch)
              done
            done;
            A.unsafe_set od ((((((b * oh) + oy) * ow) + ox) * c) + ch) (!acc *. inv)
          done
        done
      done
    done
  in
  maybe_parallel ~work:(n * oh * ow * c * kh * kw) ~n body;
  out

let avg_pool2d_backward ~size ~stride ~input_shape grad =
  let kh, kw = size and sh, sw = stride in
  let h = input_shape.(1) and w = input_shape.(2) and c = input_shape.(3) in
  let gshape = Dense.shape grad in
  let n = gshape.(0) and oh = gshape.(1) and ow = gshape.(2) in
  let dinput = Dense.zeros input_shape in
  let dd = Dense.unsafe_data dinput and gd = Dense.unsafe_data grad in
  let inv = 1.0 /. float_of_int (kh * kw) in
  let body blo bhi =
    Sanitizer.note_write dd ~lo:(blo * h * w * c) ~len:((bhi - blo) * h * w * c)
      ~who:"avg_pool2d_backward input batches";
    Sanitizer.note_read gd ~lo:(blo * oh * ow * c)
      ~len:((bhi - blo) * oh * ow * c) ~who:"avg_pool2d_backward grad";
    for b = blo to bhi - 1 do
      for oy = 0 to oh - 1 do
        for ox = 0 to ow - 1 do
          for ch = 0 to c - 1 do
            let g =
              A.unsafe_get gd ((((((b * oh) + oy) * ow) + ox) * c) + ch) *. inv
            in
            for ky = 0 to kh - 1 do
              for kx = 0 to kw - 1 do
                let iy = (oy * sh) + ky and ix = (ox * sw) + kx in
                let off = (((((b * h) + iy) * w) + ix) * c) + ch in
                A.unsafe_set dd off (A.unsafe_get dd off +. g)
              done
            done
          done
        done
      done
    done
  in
  maybe_parallel ~work:(n * oh * ow * c * kh * kw) ~n body;
  dinput

let max_pool2d ~size ~stride input =
  check_rank4 "max_pool2d" input;
  let kh, kw = size and sh, sw = stride in
  let ishape = Dense.shape input in
  let h = ishape.(1) and w = ishape.(2) and c = ishape.(3) in
  let oshape = pool_out_shape ishape size stride in
  let n = oshape.(0) and oh = oshape.(1) and ow = oshape.(2) in
  let out = Dense.zeros oshape in
  let id = Dense.unsafe_data input and od = Dense.unsafe_data out in
  let body blo bhi =
    Sanitizer.note_write od ~lo:(blo * oh * ow * c)
      ~len:((bhi - blo) * oh * ow * c) ~who:"max_pool2d out batches";
    Sanitizer.note_read id ~lo:(blo * h * w * c) ~len:((bhi - blo) * h * w * c)
      ~who:"max_pool2d input";
    for b = blo to bhi - 1 do
      for oy = 0 to oh - 1 do
        for ox = 0 to ow - 1 do
          for ch = 0 to c - 1 do
            let best = ref Float.neg_infinity in
            for ky = 0 to kh - 1 do
              for kx = 0 to kw - 1 do
                let iy = (oy * sh) + ky and ix = (ox * sw) + kx in
                best :=
                  Float.max !best
                    (A.unsafe_get id ((((((b * h) + iy) * w) + ix) * c) + ch))
              done
            done;
            A.unsafe_set od ((((((b * oh) + oy) * ow) + ox) * c) + ch) !best
          done
        done
      done
    done
  in
  maybe_parallel ~work:(n * oh * ow * c * kh * kw) ~n body;
  out

let max_pool2d_backward ~size ~stride input grad =
  check_rank4 "max_pool2d_backward" input;
  let kh, kw = size and sh, sw = stride in
  let ishape = Dense.shape input in
  let h = ishape.(1) and w = ishape.(2) and c = ishape.(3) in
  let gshape = Dense.shape grad in
  let n = gshape.(0) and oh = gshape.(1) and ow = gshape.(2) in
  let dinput = Dense.zeros ishape in
  let dd = Dense.unsafe_data dinput
  and id = Dense.unsafe_data input
  and gd = Dense.unsafe_data grad in
  let body blo bhi =
    Sanitizer.note_write dd ~lo:(blo * h * w * c) ~len:((bhi - blo) * h * w * c)
      ~who:"max_pool2d_backward input batches";
    Sanitizer.note_read id ~lo:(blo * h * w * c) ~len:((bhi - blo) * h * w * c)
      ~who:"max_pool2d_backward input";
    Sanitizer.note_read gd ~lo:(blo * oh * ow * c)
      ~len:((bhi - blo) * oh * ow * c) ~who:"max_pool2d_backward grad";
    for b = blo to bhi - 1 do
      for oy = 0 to oh - 1 do
        for ox = 0 to ow - 1 do
          for ch = 0 to c - 1 do
            (* strict > keeps the historical tie rule: the first (row-major)
               maximal element takes the whole gradient *)
            let best = ref Float.neg_infinity in
            let best_off = ref (-1) in
            for ky = 0 to kh - 1 do
              for kx = 0 to kw - 1 do
                let iy = (oy * sh) + ky and ix = (ox * sw) + kx in
                let off = (((((b * h) + iy) * w) + ix) * c) + ch in
                if A.unsafe_get id off > !best then begin
                  best := A.unsafe_get id off;
                  best_off := off
                end
              done
            done;
            A.unsafe_set dd !best_off
              (A.unsafe_get dd !best_off
              +. A.unsafe_get gd ((((((b * oh) + oy) * ow) + ox) * c) + ch))
          done
        done
      done
    done
  in
  maybe_parallel ~work:(n * oh * ow * c * kh * kw) ~n body;
  dinput

let conv2d_flops ?(stride = (1, 1)) ~padding ~input filter =
  let sh, sw = stride in
  let n = input.(0) and h = input.(1) and w = input.(2) in
  let kh = filter.(0) and kw = filter.(1) and cin = filter.(2) and cout = filter.(3) in
  let oh = out_dim padding ~size:h ~kernel:kh ~stride:sh in
  let ow = out_dim padding ~size:w ~kernel:kw ~stride:sw in
  2 * n * oh * ow * kh * kw * cin * cout
